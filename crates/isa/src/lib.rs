//! The target instruction set architecture for the emod stack.
//!
//! The paper compiles SPEC programs for the Alpha ISA and simulates them on
//! SimpleScalar. This crate plays the Alpha's role: a 64-bit load/store RISC
//! with 32 integer and 32 floating-point registers, a fixed instruction size
//! of [`INST_BYTES`] = 16 bytes (which sets the fetch addresses the
//! instruction cache and branch predictor see, and the code-size response)
//! and a software `prefetch` instruction (the target of
//! `-fprefetch-loop-arrays`).
//!
//! * [`Inst`] — the instruction set, with dataflow metadata ([`Inst::defs`],
//!   [`Inst::uses`], [`Inst::kind`]) shared by the compiler's scheduler and
//!   the cycle-accurate simulator,
//! * [`Program`] — an executable image: instructions, entry point, data
//!   segment,
//! * [`Memory`] — sparse paged byte-addressable memory,
//! * [`Emulator`] — the functional core that executes programs and streams
//!   [`Retired`] instruction records to timing consumers.
//!
//! # Examples
//!
//! ```
//! use emod_isa::{AluOp, Emulator, Inst, Program, Reg};
//!
//! // return 2 + 3
//! let prog = Program::from_insts(vec![
//!     Inst::LoadImm { rd: Reg(1), imm: 2 },
//!     Inst::LoadImm { rd: Reg(2), imm: 3 },
//!     Inst::Alu { op: AluOp::Add, rd: Reg(1), rs: Reg(1), rt: Reg(2) },
//!     Inst::Halt,
//! ]);
//! let mut emu = Emulator::new(&prog);
//! let exit = emu.run(10_000)?;
//! assert_eq!(exit, 5);
//! # Ok::<(), emod_isa::EmuError>(())
//! ```

mod emu;
mod inst;
mod mem;
mod program;

pub use emu::{EmuError, Emulator, Retired};
pub use inst::{AluOp, BranchCond, FCmpOp, FReg, Inst, InstKind, Reg, RegRef};
pub use mem::Memory;
pub use program::{BuildError, Program, ProgramBuilder};

/// Size of one instruction in bytes; instruction addresses are
/// `pc * INST_BYTES`.
///
/// The size is deliberately wide (16 bytes rather than the Alpha's 4):
/// the synthetic workloads are one-to-two orders of magnitude smaller than
/// gcc-compiled SPEC binaries, and a wide instruction restores a realistic
/// ratio of hot-code footprint to the Table 2 instruction-cache sizes
/// (8–128 KiB). See DESIGN.md's substitution notes.
pub const INST_BYTES: u64 = 16;

/// Base virtual address of the global data segment.
pub const DATA_BASE: u64 = 0x1000_0000;

/// Initial stack pointer (stack grows down).
pub const STACK_BASE: u64 = 0x7fff_f000;

/// Register index conventions used by the compiler and emulator.
pub mod abi {
    use super::Reg;

    /// Hardwired zero register.
    pub const ZERO: Reg = Reg(0);
    /// Return-value register.
    pub const RV: Reg = Reg(1);
    /// First argument register (arguments use `a0..a5` = `r2..r7`).
    pub const A0: Reg = Reg(2);
    /// Number of integer argument registers.
    pub const ARG_COUNT: u8 = 6;
    /// Stack pointer.
    pub const SP: Reg = Reg(29);
    /// Frame pointer (freed for allocation by `-fomit-frame-pointer`).
    pub const FP: Reg = Reg(30);
    /// Return-address register (written by `call`).
    pub const RA: Reg = Reg(31);
}
