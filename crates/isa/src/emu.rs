//! Functional emulator: architectural execution and retired-instruction
//! records for timing consumers.

use crate::inst::{AluOp, BranchCond, FCmpOp, Inst};
use crate::{abi, Memory, Program, INST_BYTES, STACK_BASE};
use std::error::Error;
use std::fmt;

/// A retired (architecturally executed) instruction record.
///
/// This is the interface between functional and timing simulation: the
/// out-of-order core consumes the exact dynamic instruction stream,
/// annotated with effective addresses and branch outcomes, SimpleScalar
/// style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retired {
    /// Program counter of the instruction (instruction index).
    pub pc: u32,
    /// The instruction itself.
    pub inst: Inst,
    /// Effective byte address for memory operations.
    pub mem_addr: Option<u64>,
    /// Next program counter actually taken.
    pub next_pc: u32,
    /// For control instructions: whether the control transfer was taken
    /// (conditional branches may fall through).
    pub taken: bool,
}

impl Retired {
    /// Byte address of the instruction itself (for icache modeling).
    #[inline]
    pub fn fetch_addr(&self) -> u64 {
        self.pc as u64 * INST_BYTES
    }
}

/// Errors raised by architectural execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// Program counter left the instruction stream.
    PcOutOfRange(u32),
    /// Signed division or remainder by zero.
    DivideByZero(u32),
    /// The instruction budget ran out before `halt`.
    OutOfFuel,
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfRange(pc) => write!(f, "pc {} out of range", pc),
            EmuError::DivideByZero(pc) => write!(f, "division by zero at pc {}", pc),
            EmuError::OutOfFuel => write!(f, "instruction budget exhausted before halt"),
        }
    }
}

impl Error for EmuError {}

/// The functional core: executes a [`Program`] instruction by instruction.
///
/// # Examples
///
/// ```
/// use emod_isa::{Emulator, Inst, Program, Reg};
///
/// let prog = Program::from_insts(vec![
///     Inst::LoadImm { rd: Reg(1), imm: 41 },
///     Inst::AluImm { op: emod_isa::Inst::add_op(), rd: Reg(1), rs: Reg(1), imm: 1 },
///     Inst::Halt,
/// ]);
/// let mut emu = Emulator::new(&prog);
/// assert_eq!(emu.run(100)?, 42);
/// # Ok::<(), emod_isa::EmuError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Emulator {
    program: Program,
    regs: [i64; 32],
    fregs: [f64; 32],
    pc: u32,
    mem: Memory,
    halted: bool,
    retired_count: u64,
}

impl Emulator {
    /// Creates an emulator with the program loaded: data segments copied to
    /// memory, stack pointer initialized, pc at the entry point.
    pub fn new(program: &Program) -> Self {
        let mut mem = Memory::new();
        for (base, bytes) in program.data_segments() {
            mem.write_bytes(*base, bytes);
        }
        let mut regs = [0i64; 32];
        regs[abi::SP.0 as usize] = STACK_BASE as i64;
        regs[abi::FP.0 as usize] = STACK_BASE as i64;
        // A sentinel return address: returning from the entry function jumps
        // to a halt-like out-of-range pc; programs are expected to halt
        // explicitly instead.
        regs[abi::RA.0 as usize] = program.len() as i64;
        Emulator {
            pc: program.entry(),
            program: program.clone(),
            regs,
            fregs: [0.0; 32],
            mem,
            halted: false,
            retired_count: 0,
        }
    }

    /// Whether the program has executed `halt`.
    #[inline]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far.
    pub fn retired_count(&self) -> u64 {
        self.retired_count
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads an integer register.
    pub fn reg(&self, r: crate::Reg) -> i64 {
        self.regs[r.0 as usize]
    }

    /// The exit value (ABI return register), meaningful once halted.
    pub fn exit_value(&self) -> i64 {
        self.regs[abi::RV.0 as usize]
    }

    /// Borrows data memory (e.g. to inspect results in tests).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Executes one instruction, returning its retirement record, or `None`
    /// if the program has already halted.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::PcOutOfRange`] or [`EmuError::DivideByZero`] on
    /// architectural faults.
    // `#[inline]` here and on the other calls `simulate_sampled` makes once
    // per instruction from `emod-uarch`: without LTO a non-generic function
    // is never inlined across crates (DESIGN.md §4).
    #[inline]
    pub fn step(&mut self) -> Result<Option<Retired>, EmuError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let inst = self.program.fetch(pc).ok_or(EmuError::PcOutOfRange(pc))?;
        let mut mem_addr = None;
        let mut next_pc = pc + 1;
        let mut taken = false;

        macro_rules! r {
            ($r:expr) => {
                self.regs[$r.0 as usize]
            };
        }
        macro_rules! fr {
            ($r:expr) => {
                self.fregs[$r.0 as usize]
            };
        }
        macro_rules! setr {
            ($r:expr, $v:expr) => {
                if $r.0 != 0 {
                    self.regs[$r.0 as usize] = $v;
                }
            };
        }

        match inst {
            Inst::Alu { op, rd, rs, rt } => {
                let v = alu(op, r!(rs), r!(rt));
                setr!(rd, v);
            }
            Inst::AluImm { op, rd, rs, imm } => {
                let v = alu(op, r!(rs), imm);
                setr!(rd, v);
            }
            Inst::LoadImm { rd, imm } => setr!(rd, imm),
            Inst::Mul { rd, rs, rt } => setr!(rd, r!(rs).wrapping_mul(r!(rt))),
            Inst::Div { rd, rs, rt } => {
                let d = r!(rt);
                if d == 0 {
                    return Err(EmuError::DivideByZero(pc));
                }
                setr!(rd, r!(rs).wrapping_div(d));
            }
            Inst::Rem { rd, rs, rt } => {
                let d = r!(rt);
                if d == 0 {
                    return Err(EmuError::DivideByZero(pc));
                }
                setr!(rd, r!(rs).wrapping_rem(d));
            }
            Inst::FAdd { fd, fs, ft } => fr!(fd) = fr!(fs) + fr!(ft),
            Inst::FSub { fd, fs, ft } => fr!(fd) = fr!(fs) - fr!(ft),
            Inst::FMul { fd, fs, ft } => fr!(fd) = fr!(fs) * fr!(ft),
            Inst::FDiv { fd, fs, ft } => fr!(fd) = fr!(fs) / fr!(ft),
            Inst::FCmp { op, rd, fs, ft } => {
                let c = match op {
                    FCmpOp::Lt => fr!(fs) < fr!(ft),
                    FCmpOp::Le => fr!(fs) <= fr!(ft),
                    FCmpOp::Eq => fr!(fs) == fr!(ft),
                };
                setr!(rd, c as i64);
            }
            Inst::CvtIf { fd, rs } => fr!(fd) = r!(rs) as f64,
            Inst::CvtFi { rd, fs } => setr!(rd, fr!(fs) as i64),
            Inst::FLoadImm { fd, imm } => fr!(fd) = imm,
            Inst::Load { rd, rs, offset } => {
                let addr = (r!(rs) as u64).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                let v = self.mem.read_i64(addr);
                setr!(rd, v);
            }
            Inst::Store { rt, rs, offset } => {
                let addr = (r!(rs) as u64).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                self.mem.write_i64(addr, r!(rt));
            }
            Inst::LoadByte { rd, rs, offset } => {
                let addr = (r!(rs) as u64).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                let v = self.mem.read_u8(addr) as i64;
                setr!(rd, v);
            }
            Inst::StoreByte { rt, rs, offset } => {
                let addr = (r!(rs) as u64).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                self.mem.write_u8(addr, r!(rt) as u8);
            }
            Inst::FLoad { fd, rs, offset } => {
                let addr = (r!(rs) as u64).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                fr!(fd) = self.mem.read_f64(addr);
            }
            Inst::FStore { ft, rs, offset } => {
                let addr = (r!(rs) as u64).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                self.mem.write_f64(addr, fr!(ft));
            }
            Inst::Prefetch { rs, offset } => {
                mem_addr = Some((r!(rs) as u64).wrapping_add(offset as u64));
            }
            Inst::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                let c = match cond {
                    BranchCond::Eq => r!(rs) == r!(rt),
                    BranchCond::Ne => r!(rs) != r!(rt),
                    BranchCond::Lt => r!(rs) < r!(rt),
                    BranchCond::Ge => r!(rs) >= r!(rt),
                };
                if c {
                    next_pc = target;
                    taken = true;
                }
            }
            Inst::Jump { target } => {
                next_pc = target;
                taken = true;
            }
            Inst::Call { target } => {
                setr!(abi::RA, (pc + 1) as i64);
                next_pc = target;
                taken = true;
            }
            Inst::JumpReg { rs } => {
                next_pc = r!(rs) as u32;
                taken = true;
            }
            Inst::Nop => {}
            Inst::Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }

        self.pc = next_pc;
        self.retired_count += 1;
        Ok(Some(Retired {
            pc,
            inst,
            mem_addr,
            next_pc,
            taken,
        }))
    }

    /// Runs until `halt` or `fuel` instructions, returning the exit value.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::OutOfFuel`] if the budget expires first, or any
    /// architectural fault from [`Emulator::step`].
    pub fn run(&mut self, fuel: u64) -> Result<i64, EmuError> {
        for _ in 0..fuel {
            if self.step()?.is_none() {
                return Ok(self.exit_value());
            }
            if self.halted {
                return Ok(self.exit_value());
            }
        }
        if self.halted {
            Ok(self.exit_value())
        } else {
            Err(EmuError::OutOfFuel)
        }
    }

    /// Runs to completion, invoking `consumer` for every retired instruction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Emulator::run`].
    pub fn run_with<F: FnMut(&Retired)>(
        &mut self,
        fuel: u64,
        mut consumer: F,
    ) -> Result<i64, EmuError> {
        for _ in 0..fuel {
            match self.step()? {
                Some(retired) => {
                    consumer(&retired);
                    if self.halted {
                        return Ok(self.exit_value());
                    }
                }
                None => return Ok(self.exit_value()),
            }
        }
        Err(EmuError::OutOfFuel)
    }
}

fn alu(op: AluOp, a: i64, b: i64) -> i64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::Shr => a.wrapping_shr((b & 63) as u32),
        AluOp::Slt => (a < b) as i64,
        AluOp::Seq => (a == b) as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, FCmpOp, InstKind};
    use crate::{FReg, ProgramBuilder, Reg};

    fn run_insts(insts: Vec<Inst>) -> i64 {
        let prog = Program::from_insts(insts);
        Emulator::new(&prog).run(1_000_000).unwrap()
    }

    #[test]
    fn arithmetic_and_halt() {
        let v = run_insts(vec![
            Inst::LoadImm {
                rd: Reg(1),
                imm: 10,
            },
            Inst::AluImm {
                op: AluOp::Sub,
                rd: Reg(1),
                rs: Reg(1),
                imm: 3,
            },
            Inst::Halt,
        ]);
        assert_eq!(v, 7);
    }

    #[test]
    fn all_alu_ops() {
        let cases = [
            (AluOp::Add, 7, 3, 10),
            (AluOp::Sub, 7, 3, 4),
            (AluOp::And, 6, 3, 2),
            (AluOp::Or, 6, 3, 7),
            (AluOp::Xor, 6, 3, 5),
            (AluOp::Shl, 3, 2, 12),
            (AluOp::Shr, 12, 2, 3),
            (AluOp::Slt, 2, 3, 1),
            (AluOp::Slt, 3, 2, 0),
            (AluOp::Seq, 5, 5, 1),
        ];
        for (op, a, b, want) in cases {
            let v = run_insts(vec![
                Inst::LoadImm { rd: Reg(2), imm: a },
                Inst::LoadImm { rd: Reg(3), imm: b },
                Inst::Alu {
                    op,
                    rd: Reg(1),
                    rs: Reg(2),
                    rt: Reg(3),
                },
                Inst::Halt,
            ]);
            assert_eq!(v, want, "{:?} {} {}", op, a, b);
        }
    }

    #[test]
    fn negative_shr_is_arithmetic() {
        let v = run_insts(vec![
            Inst::LoadImm {
                rd: Reg(2),
                imm: -8,
            },
            Inst::AluImm {
                op: AluOp::Shr,
                rd: Reg(1),
                rs: Reg(2),
                imm: 1,
            },
            Inst::Halt,
        ]);
        assert_eq!(v, -4);
    }

    #[test]
    fn mul_div_rem() {
        let v = run_insts(vec![
            Inst::LoadImm {
                rd: Reg(2),
                imm: 17,
            },
            Inst::LoadImm { rd: Reg(3), imm: 5 },
            Inst::Div {
                rd: Reg(4),
                rs: Reg(2),
                rt: Reg(3),
            },
            Inst::Rem {
                rd: Reg(5),
                rs: Reg(2),
                rt: Reg(3),
            },
            Inst::Mul {
                rd: Reg(1),
                rs: Reg(4),
                rt: Reg(5),
            },
            Inst::Halt,
        ]);
        assert_eq!(v, 3 * 2);
    }

    #[test]
    fn divide_by_zero_faults() {
        let prog = Program::from_insts(vec![
            Inst::Div {
                rd: Reg(1),
                rs: Reg(0),
                rt: Reg(0),
            },
            Inst::Halt,
        ]);
        assert_eq!(
            Emulator::new(&prog).run(10).unwrap_err(),
            EmuError::DivideByZero(0)
        );
    }

    #[test]
    fn zero_register_is_immutable() {
        let v = run_insts(vec![
            Inst::LoadImm {
                rd: Reg(0),
                imm: 99,
            },
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg(1),
                rs: Reg(0),
                rt: Reg(0),
            },
            Inst::Halt,
        ]);
        assert_eq!(v, 0);
    }

    #[test]
    fn float_pipeline() {
        let v = {
            let prog = Program::from_insts(vec![
                Inst::FLoadImm {
                    fd: FReg(1),
                    imm: 1.5,
                },
                Inst::FLoadImm {
                    fd: FReg(2),
                    imm: 2.0,
                },
                Inst::FMul {
                    fd: FReg(3),
                    fs: FReg(1),
                    ft: FReg(2),
                },
                Inst::CvtFi {
                    rd: Reg(1),
                    fs: FReg(3),
                },
                Inst::Halt,
            ]);
            Emulator::new(&prog).run(100).unwrap()
        };
        assert_eq!(v, 3);
    }

    #[test]
    fn fcmp_results() {
        for (op, a, b, want) in [
            (FCmpOp::Lt, 1.0, 2.0, 1),
            (FCmpOp::Lt, 2.0, 1.0, 0),
            (FCmpOp::Le, 2.0, 2.0, 1),
            (FCmpOp::Eq, 2.0, 2.0, 1),
            (FCmpOp::Eq, 2.0, 2.5, 0),
        ] {
            let prog = Program::from_insts(vec![
                Inst::FLoadImm {
                    fd: FReg(1),
                    imm: a,
                },
                Inst::FLoadImm {
                    fd: FReg(2),
                    imm: b,
                },
                Inst::FCmp {
                    op,
                    rd: Reg(1),
                    fs: FReg(1),
                    ft: FReg(2),
                },
                Inst::Halt,
            ]);
            assert_eq!(Emulator::new(&prog).run(100).unwrap(), want);
        }
    }

    #[test]
    fn memory_roundtrip_and_effective_addresses() {
        let prog = Program::from_insts(vec![
            Inst::LoadImm {
                rd: Reg(2),
                imm: 0x1000_0000,
            },
            Inst::LoadImm {
                rd: Reg(3),
                imm: 77,
            },
            Inst::Store {
                rt: Reg(3),
                rs: Reg(2),
                offset: 16,
            },
            Inst::Load {
                rd: Reg(1),
                rs: Reg(2),
                offset: 16,
            },
            Inst::Halt,
        ]);
        let mut emu = Emulator::new(&prog);
        let mut addrs = Vec::new();
        let v = emu
            .run_with(100, |r| {
                if let Some(a) = r.mem_addr {
                    addrs.push(a);
                }
            })
            .unwrap();
        assert_eq!(v, 77);
        assert_eq!(addrs, vec![0x1000_0010, 0x1000_0010]);
    }

    #[test]
    fn loop_with_builder_and_branch_records() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::LoadImm { rd: Reg(1), imm: 0 });
        b.push(Inst::LoadImm { rd: Reg(2), imm: 0 });
        b.push(Inst::LoadImm {
            rd: Reg(3),
            imm: 10,
        });
        b.label("loop");
        b.push(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg(1),
            rs: Reg(1),
            imm: 2,
        });
        b.push(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg(2),
            rs: Reg(2),
            imm: 1,
        });
        b.branch_to(BranchCond::Lt, Reg(2), Reg(3), "loop");
        b.push(Inst::Halt);
        let prog = b.build().unwrap();
        let mut emu = Emulator::new(&prog);
        let mut takens = 0;
        let mut not_takens = 0;
        let v = emu
            .run_with(10_000, |r| {
                if matches!(r.inst.kind(), InstKind::Branch) {
                    if r.taken {
                        takens += 1;
                    } else {
                        not_takens += 1;
                    }
                }
            })
            .unwrap();
        assert_eq!(v, 20);
        assert_eq!(takens, 9);
        assert_eq!(not_takens, 1);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new();
        // main: call f; halt. f: rv = 123; ret.
        b.call_to("f");
        b.push(Inst::Halt);
        b.label("f");
        b.push(Inst::LoadImm {
            rd: Reg(1),
            imm: 123,
        });
        b.push(Inst::JumpReg { rs: abi::RA });
        let prog = b.build().unwrap();
        assert_eq!(Emulator::new(&prog).run(100).unwrap(), 123);
    }

    #[test]
    fn data_segment_loaded() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::LoadImm {
            rd: Reg(2),
            imm: crate::DATA_BASE as i64,
        });
        b.push(Inst::Load {
            rd: Reg(1),
            rs: Reg(2),
            offset: 0,
        });
        b.push(Inst::Halt);
        b.data(crate::DATA_BASE, 55i64.to_le_bytes().to_vec());
        let prog = b.build().unwrap();
        assert_eq!(Emulator::new(&prog).run(100).unwrap(), 55);
    }

    #[test]
    fn out_of_fuel() {
        let mut b = ProgramBuilder::new();
        b.label("spin");
        b.jump_to("spin");
        let prog = b.build().unwrap();
        assert_eq!(
            Emulator::new(&prog).run(100).unwrap_err(),
            EmuError::OutOfFuel
        );
    }

    #[test]
    fn pc_out_of_range_faults() {
        let prog = Program::from_insts(vec![Inst::Nop]);
        let mut emu = Emulator::new(&prog);
        emu.step().unwrap();
        assert_eq!(emu.step().unwrap_err(), EmuError::PcOutOfRange(1));
    }

    #[test]
    fn prefetch_never_faults_and_reports_address() {
        let prog = Program::from_insts(vec![
            Inst::Prefetch {
                rs: Reg(0),
                offset: 0x7777_0000,
            },
            Inst::Halt,
        ]);
        let mut emu = Emulator::new(&prog);
        let r = emu.step().unwrap().unwrap();
        assert_eq!(r.mem_addr, Some(0x7777_0000));
    }
}
