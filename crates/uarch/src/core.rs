//! The out-of-order core: a timestamp-propagation timing model of a
//! RUU-based superscalar pipeline.
//!
//! Every retired instruction receives fetch → dispatch → issue → complete →
//! commit timestamps under the machine's resource constraints:
//!
//! * fetch bandwidth (= issue width) and instruction-cache latency,
//! * the front-end depth and branch-misprediction redirects,
//! * RUU occupancy (dispatch stalls when the window is full),
//! * functional-unit availability (pool scaled by issue width; divides are
//!   unpipelined),
//! * data-cache/L2/DRAM latency for loads, store-to-load forwarding,
//! * in-order commit bandwidth.
//!
//! The model is execution-driven (it consumes the functional core's retired
//! stream) like SimpleScalar's `sim-outorder`, trading wrong-path fetch
//! modeling for speed; mispredictions still cost the full resolve + redirect
//! + refill delay.

use crate::bpred::{BpredStats, BranchPredictor};
use crate::config::{UarchConfig, FRONT_END_DEPTH, LINE_SIZE, REDIRECT_PENALTY};
use crate::memsys::{AccessKind, MemSys};
use crate::CacheStats;
use emod_isa::{InstKind, Reg, RegRef, Retired};
use std::collections::VecDeque;

/// Execution latency of each operation class on the simulated machine
/// (loads get their latency from the memory hierarchy instead).
fn exec_latency(kind: InstKind) -> u64 {
    match kind {
        InstKind::IntAlu => 1,
        InstKind::IntMul => 3,
        InstKind::IntDiv => 20,
        InstKind::FpAdd => 2,
        InstKind::FpMul => 4,
        InstKind::FpDiv => 12,
        InstKind::Store | InstKind::Prefetch | InstKind::Load => 1,
        InstKind::Branch | InstKind::Jump | InstKind::Call | InstKind::Ret | InstKind::Other => 1,
    }
}

/// Whether the unit is unpipelined (occupied for the whole operation).
fn unpipelined(kind: InstKind) -> bool {
    matches!(kind, InstKind::IntDiv | InstKind::FpDiv)
}

#[derive(Debug, Clone, Copy)]
enum FuClass {
    IntAlu,
    IntMul,
    FpAdd,
    FpMul,
    MemPort,
    None,
}

fn fu_class(kind: InstKind) -> FuClass {
    match kind {
        InstKind::IntAlu | InstKind::Branch | InstKind::Jump | InstKind::Call | InstKind::Ret => {
            FuClass::IntAlu
        }
        InstKind::IntMul | InstKind::IntDiv => FuClass::IntMul,
        InstKind::FpAdd => FuClass::FpAdd,
        InstKind::FpMul | InstKind::FpDiv => FuClass::FpMul,
        InstKind::Load | InstKind::Store | InstKind::Prefetch => FuClass::MemPort,
        InstKind::Other => FuClass::None,
    }
}

/// Per-cycle bandwidth allocator.
#[derive(Debug, Clone, Copy, Default)]
struct SlotCounter {
    cycle: u64,
    used: u32,
}

impl SlotCounter {
    /// Allocates a slot at the earliest cycle `>= earliest` with bandwidth
    /// `width`, returning that cycle.
    fn alloc(&mut self, earliest: u64, width: u32) -> u64 {
        if earliest > self.cycle {
            self.cycle = earliest;
            self.used = 0;
        }
        if self.used >= width {
            self.cycle += 1;
            self.used = 0;
        }
        self.used += 1;
        self.cycle
    }
}

/// Per-operation energy costs, in arbitrary "energy units" (roughly
/// picojoule-scaled): a simple activity-based model so that power/energy can
/// be used as an alternative response variable, the extension the paper
/// sketches in §2.2 ("models can also be built for other metrics such as
/// power consumption or code size").
pub fn op_energy(kind: InstKind) -> f64 {
    match kind {
        InstKind::IntAlu => 1.0,
        InstKind::IntMul => 3.0,
        InstKind::IntDiv => 12.0,
        InstKind::FpAdd => 2.0,
        InstKind::FpMul => 4.0,
        InstKind::FpDiv => 10.0,
        InstKind::Load | InstKind::Store => 2.0,
        InstKind::Prefetch => 1.5,
        InstKind::Branch | InstKind::Jump | InstKind::Call | InstKind::Ret => 1.0,
        InstKind::Other => 0.5,
    }
}

/// Energy per cache/memory event (same arbitrary units).
pub mod energy_cost {
    /// L1 (instruction or data) access.
    pub const L1_ACCESS: f64 = 2.0;
    /// Unified L2 access.
    pub const L2_ACCESS: f64 = 10.0;
    /// DRAM access.
    pub const MEM_ACCESS: f64 = 60.0;
    /// Static/leakage energy per cycle.
    pub const PER_CYCLE: f64 = 0.8;
}

/// Pipeline-behavior counters: where retired instructions spent their time
/// waiting. Together with the cache/predictor stats these explain *why* a
/// configuration got its cycle count — the breakdown the telemetry summary
/// and JSONL stream report per simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipeStats {
    /// Sum of RUU occupancy sampled at each dispatch (divide by
    /// [`PipeStats::dispatches`] for the mean).
    pub ruu_occ_sum: u64,
    /// Dispatch events (= retired instructions reaching the window).
    pub dispatches: u64,
    /// Dispatches delayed because the RUU was full.
    pub window_full_stalls: u64,
    /// Fetch-stage stall cycles charged to instruction-cache misses.
    pub fetch_stall_cycles: u64,
    /// Cycles instructions spent ready but waiting for a functional unit.
    pub issue_wait_cycles: u64,
    /// Cycles lost at commit to bandwidth (beyond dataflow + in-order
    /// constraints).
    pub commit_wait_cycles: u64,
    /// Front-end redirects from mispredicted control transfers.
    pub redirects: u64,
}

impl PipeStats {
    /// Mean RUU occupancy observed at dispatch.
    pub fn mean_ruu_occupancy(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.ruu_occ_sum as f64 / self.dispatches as f64
        }
    }

    /// Folds another counter set into this one (all fields are additive).
    pub fn merge(&mut self, other: &PipeStats) {
        self.ruu_occ_sum += other.ruu_occ_sum;
        self.dispatches += other.dispatches;
        self.window_full_stalls += other.window_full_stalls;
        self.fetch_stall_cycles += other.fetch_stall_cycles;
        self.issue_wait_cycles += other.issue_wait_cycles;
        self.commit_wait_cycles += other.commit_wait_cycles;
        self.redirects += other.redirects;
    }
}

/// A CPI stack: one simulation's cycles-per-instruction decomposed into the
/// stall components [`PipeStats`] records, plus a `base` remainder
/// (dataflow, execution and memory latency that no stall counter isolates).
///
/// Components are *approximate charges* in cycles per dispatched
/// instruction — the stall counters of an out-of-order machine overlap, so
/// the stack explains where time went rather than partitioning it exactly.
/// `window` charges one cycle per window-full dispatch stall and `redirect`
/// charges the front-end redirect penalty per misprediction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpiStack {
    /// Total cycles per instruction being decomposed.
    pub cpi: f64,
    /// Remainder not attributed to a stall counter: issue-width-bound
    /// dispatch plus dataflow/memory latency.
    pub base: f64,
    /// Instruction-cache fetch stalls per instruction.
    pub fetch: f64,
    /// Window-full (RUU occupancy) dispatch stalls per instruction.
    pub window: f64,
    /// Functional-unit (execution) wait cycles per instruction.
    pub exec: f64,
    /// Commit-bandwidth wait cycles per instruction.
    pub commit: f64,
    /// Branch-misprediction redirect penalty per instruction.
    pub redirect: f64,
}

impl CpiStack {
    /// Builds a stack from pipeline counters and the CPI they accompany.
    /// With zero dispatches every component is zero and `base == cpi`.
    pub fn from_pipe(pipe: &PipeStats, cpi: f64) -> CpiStack {
        let n = pipe.dispatches as f64;
        if n <= 0.0 {
            return CpiStack {
                cpi,
                base: cpi,
                ..CpiStack::default()
            };
        }
        let fetch = pipe.fetch_stall_cycles as f64 / n;
        let window = pipe.window_full_stalls as f64 / n;
        let exec = pipe.issue_wait_cycles as f64 / n;
        let commit = pipe.commit_wait_cycles as f64 / n;
        let redirect = pipe.redirects as f64 * REDIRECT_PENALTY as f64 / n;
        let base = (cpi - fetch - window - exec - commit - redirect).max(0.0);
        CpiStack {
            cpi,
            base,
            fetch,
            window,
            exec,
            commit,
            redirect,
        }
    }

    /// The stack normalized to shares of the total CPI (components sum to
    /// roughly 1 when no clamping occurred; all-zero when `cpi == 0`).
    pub fn shares(&self) -> CpiStack {
        if self.cpi <= 0.0 {
            return CpiStack::default();
        }
        CpiStack {
            cpi: 1.0,
            base: self.base / self.cpi,
            fetch: self.fetch / self.cpi,
            window: self.window / self.cpi,
            exec: self.exec / self.cpi,
            commit: self.commit / self.cpi,
            redirect: self.redirect / self.cpi,
        }
    }

    /// Sum of the stall components (everything but `base`).
    pub fn stall_total(&self) -> f64 {
        self.fetch + self.window + self.exec + self.commit + self.redirect
    }
}

/// Final counters of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total execution time in cycles — the paper's response variable.
    pub cycles: u64,
    /// Retired instruction count.
    pub instructions: u64,
    /// Program exit value (for validating that timing never perturbs
    /// architectural results).
    pub exit_value: i64,
    /// Conditional branch prediction counters.
    pub bpred: BpredStats,
    /// Instruction cache counters.
    pub il1: CacheStats,
    /// Data cache counters.
    pub dl1: CacheStats,
    /// Unified L2 counters.
    pub ul2: CacheStats,
    /// Estimated dynamic + static energy (arbitrary units; see
    /// [`op_energy`] / [`energy_cost`]).
    pub energy: f64,
    /// Pipeline stall/occupancy breakdown.
    pub pipe: PipeStats,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Decomposes this simulation's CPI into the stall components of
    /// [`PipeStats`].
    pub fn cpi_stack(&self) -> CpiStack {
        CpiStack::from_pipe(&self.pipe, self.cpi())
    }
}

/// The timing engine. Feed it the retired-instruction stream via
/// [`Core::step`]; read the clock with [`Core::cycles`].
#[derive(Debug)]
pub struct Core {
    cfg: UarchConfig,
    mem: MemSys,
    bpred: BranchPredictor,
    reg_ready: [u64; 64],
    ruu: VecDeque<u64>,
    store_buffer: VecDeque<(u64, u64)>, // (addr, data ready time)
    fus: FuPool,
    fetch_slots: SlotCounter,
    dispatch_slots: SlotCounter,
    commit_slots: SlotCounter,
    fetch_ready: u64,
    last_commit: u64,
    last_fetch_line: u64,
    redirect_pending: bool,
    retired: u64,
    op_energy_acc: f64,
    pipe: PipeStats,
    /// Pipe counters folded in from phases before the last
    /// [`Core::reset_timing`], so sampled runs keep a whole-run breakdown.
    pipe_accum: PipeStats,
}

#[derive(Debug)]
struct FuPool {
    int_alu: Vec<u64>,
    int_mul: Vec<u64>,
    fp_add: Vec<u64>,
    fp_mul: Vec<u64>,
    mem_ports: Vec<u64>,
}

impl FuPool {
    fn new(cfg: &UarchConfig) -> Self {
        let p = cfg.fu_pool();
        FuPool {
            int_alu: vec![0; p.int_alu as usize],
            int_mul: vec![0; p.int_mul as usize],
            fp_add: vec![0; p.fp_add as usize],
            fp_mul: vec![0; p.fp_mul as usize],
            mem_ports: vec![0; p.mem_ports as usize],
        }
    }

    /// Acquires a unit of `class` at the earliest time `>= ready`; occupies
    /// it for `occupancy` cycles. Returns the issue time.
    fn acquire(&mut self, class: FuClass, ready: u64, occupancy: u64) -> u64 {
        let pool = match class {
            FuClass::IntAlu => &mut self.int_alu,
            FuClass::IntMul => &mut self.int_mul,
            FuClass::FpAdd => &mut self.fp_add,
            FuClass::FpMul => &mut self.fp_mul,
            FuClass::MemPort => &mut self.mem_ports,
            FuClass::None => return ready,
        };
        let (idx, &free) = pool
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("pools are non-empty");
        let issue = ready.max(free);
        pool[idx] = issue + occupancy;
        issue
    }

    fn reset(&mut self) {
        for p in [
            &mut self.int_alu,
            &mut self.int_mul,
            &mut self.fp_add,
            &mut self.fp_mul,
            &mut self.mem_ports,
        ] {
            p.iter_mut().for_each(|t| *t = 0);
        }
    }
}

fn reg_index(r: RegRef) -> usize {
    match r {
        RegRef::Int(Reg(i)) => i as usize,
        RegRef::Fp(f) => 32 + f.0 as usize,
    }
}

impl Core {
    /// Creates a core in the reset state.
    pub fn new(cfg: &UarchConfig) -> Self {
        Core {
            mem: MemSys::new(cfg),
            bpred: BranchPredictor::new(cfg.bpred_size),
            reg_ready: [0; 64],
            ruu: VecDeque::with_capacity(cfg.ruu_size as usize),
            store_buffer: VecDeque::with_capacity(cfg.lsq_size() as usize),
            fus: FuPool::new(cfg),
            fetch_slots: SlotCounter::default(),
            dispatch_slots: SlotCounter::default(),
            commit_slots: SlotCounter::default(),
            fetch_ready: 0,
            last_commit: 0,
            last_fetch_line: u64::MAX,
            redirect_pending: true,
            retired: 0,
            op_energy_acc: 0.0,
            pipe: PipeStats::default(),
            pipe_accum: PipeStats::default(),
            cfg: cfg.clone(),
        }
    }

    /// Current clock: the commit time of the last retired instruction.
    pub fn cycles(&self) -> u64 {
        self.last_commit
    }

    /// Instructions retired through the timing model.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Borrows the memory hierarchy (e.g. for functional warming).
    pub fn mem_mut(&mut self) -> &mut MemSys {
        &mut self.mem
    }

    /// Borrows the branch predictor (e.g. for functional warming).
    pub fn bpred_mut(&mut self) -> &mut BranchPredictor {
        &mut self.bpred
    }

    /// Resets all *timing* state (timestamps, occupancy) while preserving
    /// the microarchitectural state that SMARTS keeps warm: caches and
    /// branch predictor contents.
    pub fn reset_timing(&mut self) {
        self.reg_ready = [0; 64];
        self.ruu.clear();
        self.store_buffer.clear();
        self.fus.reset();
        self.fetch_slots = SlotCounter::default();
        self.dispatch_slots = SlotCounter::default();
        self.commit_slots = SlotCounter::default();
        self.fetch_ready = 0;
        self.last_commit = 0;
        self.last_fetch_line = u64::MAX;
        self.redirect_pending = true;
        self.retired = 0;
        self.op_energy_acc = 0.0;
        self.pipe_accum.merge(&self.pipe);
        self.pipe = PipeStats::default();
    }

    /// Advances the model by one retired instruction.
    pub fn step(&mut self, r: &Retired) {
        let width = self.cfg.issue_width;
        let kind = r.inst.kind();

        // --- Fetch ---
        let line = r.fetch_addr() & !(LINE_SIZE - 1);
        if line != self.last_fetch_line || self.redirect_pending {
            let lat = self.mem.access(AccessKind::Fetch, line);
            if lat > 1 {
                // A miss stalls the fetch stage for the extra cycles.
                self.fetch_ready = self.fetch_slots.cycle.max(self.fetch_ready) + (lat - 1);
                self.pipe.fetch_stall_cycles += lat - 1;
            }
            self.last_fetch_line = line;
            self.redirect_pending = false;
        }
        let fetch_time = self.fetch_slots.alloc(self.fetch_ready, width);

        // --- Dispatch (RUU allocation) ---
        let mut dispatch_earliest = fetch_time + FRONT_END_DEPTH;
        while let Some(&front) = self.ruu.front() {
            if front <= dispatch_earliest {
                self.ruu.pop_front();
            } else {
                break;
            }
        }
        if self.ruu.len() >= self.cfg.ruu_size as usize {
            // Window full: wait for the oldest instruction to commit.
            let oldest = self.ruu.pop_front().expect("non-empty when full");
            dispatch_earliest = dispatch_earliest.max(oldest);
            self.pipe.window_full_stalls += 1;
        }
        self.pipe.ruu_occ_sum += self.ruu.len() as u64;
        self.pipe.dispatches += 1;
        let dispatch_time = self.dispatch_slots.alloc(dispatch_earliest, width);

        // --- Issue ---
        let mut ready = dispatch_time + 1;
        r.inst
            .visit_uses(|u| ready = ready.max(self.reg_ready[reg_index(u)]));
        let latency = exec_latency(kind);
        let occupancy = if unpipelined(kind) { latency } else { 1 };
        let issue_time = self.fus.acquire(fu_class(kind), ready, occupancy);
        self.pipe.issue_wait_cycles += issue_time - ready;

        // --- Execute / memory ---
        let complete = match kind {
            InstKind::Load => {
                let addr = r.mem_addr.expect("load has an address");
                // Store-to-load forwarding from the store buffer.
                let forwarded = self
                    .store_buffer
                    .iter()
                    .rev()
                    .find(|(a, _)| *a == addr)
                    .map(|&(_, data_ready)| data_ready);
                match forwarded {
                    Some(data_ready) => issue_time.max(data_ready) + 1,
                    None => issue_time + self.mem.access(AccessKind::Read, addr),
                }
            }
            InstKind::Store => {
                let addr = r.mem_addr.expect("store has an address");
                // Writes retire through the store buffer; the cache state
                // updates now, the latency is off the critical path.
                let _ = self.mem.access(AccessKind::Write, addr);
                let done = issue_time + 1;
                if self.store_buffer.len() >= self.cfg.lsq_size() as usize {
                    self.store_buffer.pop_front();
                }
                self.store_buffer.push_back((addr, done));
                done
            }
            InstKind::Prefetch => {
                let addr = r.mem_addr.expect("prefetch has an address");
                let _ = self.mem.access(AccessKind::Prefetch, addr);
                issue_time + 1
            }
            _ => issue_time + latency,
        };

        // --- Writeback ---
        r.inst
            .visit_defs(|d| self.reg_ready[reg_index(d)] = complete);

        // --- Control resolution ---
        let pc_addr = r.fetch_addr();
        let mispredicted = match kind {
            InstKind::Branch => {
                let predicted = self.bpred.predict_direction(pc_addr);
                let dir_correct = self.bpred.update_direction(pc_addr, r.taken);
                let _ = predicted;
                let target_ok = if r.taken {
                    let known = self.bpred.predict_target(pc_addr) == Some(r.next_pc);
                    self.bpred.update_target(pc_addr, r.next_pc);
                    known
                } else {
                    true
                };
                !(dir_correct && target_ok)
            }
            InstKind::Jump => {
                let known = self.bpred.predict_target(pc_addr) == Some(r.next_pc);
                self.bpred.update_target(pc_addr, r.next_pc);
                !known
            }
            InstKind::Call => {
                let known = self.bpred.predict_target(pc_addr) == Some(r.next_pc);
                self.bpred.update_target(pc_addr, r.next_pc);
                self.bpred.push_return(r.pc + 1);
                !known
            }
            InstKind::Ret => self.bpred.pop_return() != Some(r.next_pc),
            _ => false,
        };
        if mispredicted {
            self.fetch_ready = self.fetch_ready.max(complete + REDIRECT_PENALTY);
            self.redirect_pending = true;
            self.pipe.redirects += 1;
        }

        // --- Commit (in order) ---
        let commit_earliest = (complete + 1).max(self.last_commit);
        let commit_time = self.commit_slots.alloc(commit_earliest, width);
        self.pipe.commit_wait_cycles += commit_time - commit_earliest;
        self.last_commit = commit_time;
        self.ruu.push_back(commit_time);
        self.retired += 1;
        self.op_energy_acc += op_energy(kind);
    }

    /// Estimated energy so far: per-op activity + cache/memory events +
    /// per-cycle static power.
    pub fn energy(&self) -> f64 {
        let il1 = self.mem.il1_stats();
        let dl1 = self.mem.dl1_stats();
        let ul2 = self.mem.ul2_stats();
        let l1_accesses = il1.hits + il1.misses + dl1.hits + dl1.misses;
        let l2_accesses = ul2.hits + ul2.misses;
        let mem_accesses = ul2.misses;
        self.op_energy_acc
            + l1_accesses as f64 * energy_cost::L1_ACCESS
            + l2_accesses as f64 * energy_cost::L2_ACCESS
            + mem_accesses as f64 * energy_cost::MEM_ACCESS
            + self.cycles() as f64 * energy_cost::PER_CYCLE
    }

    /// Whole-run pipeline counters: the current phase's plus everything
    /// folded in by [`Core::reset_timing`] — for sampled runs this covers
    /// every detailed phase, not just the last unit.
    pub fn pipe_total(&self) -> PipeStats {
        let mut total = self.pipe_accum.clone();
        total.merge(&self.pipe);
        total
    }

    /// Packages final statistics (callers supply the architectural exit
    /// value from the functional core).
    pub fn result(&self, exit_value: i64) -> SimResult {
        SimResult {
            cycles: self.cycles(),
            instructions: self.retired,
            exit_value,
            bpred: self.bpred.stats(),
            il1: self.mem.il1_stats(),
            dl1: self.mem.dl1_stats(),
            ul2: self.mem.ul2_stats(),
            energy: self.energy(),
            pipe: self.pipe_total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use emod_isa::{abi, AluOp, BranchCond, Inst, Program, ProgramBuilder};

    fn counted_loop(n: i64, body_pad: usize) -> Program {
        let mut b = ProgramBuilder::new();
        b.push(Inst::LoadImm { rd: Reg(8), imm: 0 });
        b.push(Inst::LoadImm { rd: Reg(9), imm: n });
        b.label("loop");
        for _ in 0..body_pad {
            b.push(Inst::Alu {
                op: AluOp::Add,
                rd: Reg(10),
                rs: Reg(10),
                rt: Reg(0),
            });
        }
        b.push(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg(8),
            rs: Reg(8),
            imm: 1,
        });
        b.branch_to(BranchCond::Lt, Reg(8), Reg(9), "loop");
        b.push(Inst::Alu {
            op: AluOp::Add,
            rd: abi::RV,
            rs: Reg(8),
            rt: Reg(0),
        });
        b.push(Inst::Halt);
        b.build().unwrap()
    }

    #[test]
    fn executes_and_counts_cycles() {
        let prog = counted_loop(100, 4);
        let res = simulate(&prog, &UarchConfig::typical()).unwrap();
        assert_eq!(res.exit_value, 100);
        assert!(res.cycles > 100, "loop must take cycles: {}", res.cycles);
        assert!(res.instructions > 600);
        assert!(res.ipc() > 0.3 && res.ipc() < 4.0, "ipc {}", res.ipc());
    }

    #[test]
    fn wider_issue_is_faster_on_ilp() {
        // Independent ALU ops: width 4 must beat width 2.
        let mut b = ProgramBuilder::new();
        b.push(Inst::LoadImm { rd: Reg(8), imm: 0 });
        b.push(Inst::LoadImm {
            rd: Reg(9),
            imm: 2000,
        });
        b.label("loop");
        for k in 10..18 {
            b.push(Inst::AluImm {
                op: AluOp::Add,
                rd: Reg(k),
                rs: Reg(0),
                imm: k as i64,
            });
        }
        b.push(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg(8),
            rs: Reg(8),
            imm: 1,
        });
        b.branch_to(BranchCond::Lt, Reg(8), Reg(9), "loop");
        b.push(Inst::Halt);
        let prog = b.build().unwrap();

        let mut narrow_cfg = UarchConfig::typical();
        narrow_cfg.issue_width = 2;
        let wide = simulate(&prog, &UarchConfig::typical()).unwrap();
        let narrow = simulate(&prog, &narrow_cfg).unwrap();
        assert!(
            narrow.cycles as f64 > wide.cycles as f64 * 1.3,
            "narrow {} wide {}",
            narrow.cycles,
            wide.cycles
        );
    }

    #[test]
    fn bigger_ruu_hides_memory_latency() {
        // A pointer-independent load stream: with a tiny window the machine
        // serializes on the window; with a large one it overlaps misses.
        let mut b = ProgramBuilder::new();
        b.push(Inst::LoadImm { rd: Reg(8), imm: 0 });
        b.push(Inst::LoadImm {
            rd: Reg(9),
            imm: 4000,
        });
        b.push(Inst::LoadImm {
            rd: Reg(10),
            imm: emod_isa::DATA_BASE as i64,
        });
        b.label("loop");
        b.push(Inst::Load {
            rd: Reg(11),
            rs: Reg(10),
            offset: 0,
        });
        b.push(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg(10),
            rs: Reg(10),
            imm: 64,
        });
        b.push(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg(8),
            rs: Reg(8),
            imm: 1,
        });
        b.branch_to(BranchCond::Lt, Reg(8), Reg(9), "loop");
        b.push(Inst::Halt);
        let prog = b.build().unwrap();

        let mut small = UarchConfig::typical();
        small.ruu_size = 16;
        let mut big = UarchConfig::typical();
        big.ruu_size = 128;
        let s = simulate(&prog, &small).unwrap();
        let l = simulate(&prog, &big).unwrap();
        assert!(
            s.cycles as f64 > l.cycles as f64 * 1.2,
            "small-RUU {} vs large-RUU {}",
            s.cycles,
            l.cycles
        );
    }

    #[test]
    fn store_load_forwarding_beats_cache_roundtrip() {
        // store then immediately load the same address, repeatedly.
        let mut b = ProgramBuilder::new();
        b.push(Inst::LoadImm { rd: Reg(8), imm: 0 });
        b.push(Inst::LoadImm {
            rd: Reg(9),
            imm: 1000,
        });
        b.push(Inst::LoadImm {
            rd: Reg(10),
            imm: emod_isa::DATA_BASE as i64,
        });
        b.label("loop");
        b.push(Inst::Store {
            rt: Reg(8),
            rs: Reg(10),
            offset: 0,
        });
        b.push(Inst::Load {
            rd: Reg(11),
            rs: Reg(10),
            offset: 0,
        });
        b.push(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg(8),
            rs: Reg(8),
            imm: 1,
        });
        b.branch_to(BranchCond::Lt, Reg(8), Reg(9), "loop");
        b.push(Inst::Halt);
        let prog = b.build().unwrap();
        let res = simulate(&prog, &UarchConfig::typical()).unwrap();
        // With forwarding the loop should run at a few cycles per iteration.
        assert!(
            res.cycles < 12_000,
            "forwarding not effective: {} cycles",
            res.cycles
        );
    }

    #[test]
    fn branchy_code_suffers_with_tiny_predictor() {
        // Data-dependent branches over many static sites.
        let mut b = ProgramBuilder::new();
        b.push(Inst::LoadImm { rd: Reg(8), imm: 0 });
        b.push(Inst::LoadImm {
            rd: Reg(9),
            imm: 300,
        });
        b.label("outer");
        for site in 0..64 {
            // Branch on a pseudo-random bit of the counter.
            b.push(Inst::AluImm {
                op: AluOp::Shr,
                rd: Reg(10),
                rs: Reg(8),
                imm: site % 5,
            });
            b.push(Inst::AluImm {
                op: AluOp::And,
                rd: Reg(10),
                rs: Reg(10),
                imm: 1,
            });
            let skip = format!("skip{}", site);
            b.branch_to(BranchCond::Eq, Reg(10), Reg(0), &skip);
            b.push(Inst::AluImm {
                op: AluOp::Add,
                rd: Reg(11),
                rs: Reg(11),
                imm: 1,
            });
            b.label(skip);
        }
        b.push(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg(8),
            rs: Reg(8),
            imm: 1,
        });
        b.branch_to(BranchCond::Lt, Reg(8), Reg(9), "outer");
        b.push(Inst::Halt);
        let prog = b.build().unwrap();

        let mut tiny = UarchConfig::typical();
        tiny.bpred_size = 512;
        let mut huge = UarchConfig::typical();
        huge.bpred_size = 8192;
        let t = simulate(&prog, &tiny).unwrap();
        let h = simulate(&prog, &huge).unwrap();
        assert!(
            t.bpred.dir_misses >= h.bpred.dir_misses,
            "tiny {} vs huge {} mispredicts",
            t.bpred.dir_misses,
            h.bpred.dir_misses
        );
    }

    #[test]
    fn timing_never_perturbs_architectural_results() {
        let prog = counted_loop(77, 2);
        let functional = emod_isa::Emulator::new(&prog).run(1_000_000).unwrap();
        for cfg in [
            UarchConfig::constrained(),
            UarchConfig::typical(),
            UarchConfig::aggressive(),
        ] {
            let res = simulate(&prog, &cfg).unwrap();
            assert_eq!(res.exit_value, functional);
        }
    }

    #[test]
    fn pipe_stats_account_for_stalls() {
        let prog = counted_loop(2000, 4);
        let res = simulate(&prog, &UarchConfig::typical()).unwrap();
        // Every retired instruction dispatches exactly once.
        assert_eq!(res.pipe.dispatches, res.instructions);
        let occ = res.pipe.mean_ruu_occupancy();
        assert!(
            occ > 0.0 && occ <= UarchConfig::typical().ruu_size as f64,
            "mean RUU occupancy {} out of range",
            occ
        );
        // The loop-closing branch is taken ~2000 times; at least the first
        // encounter of each control transfer redirects the front end.
        assert!(res.pipe.redirects > 0);
        // A tiny window must stall dispatch more than a big one.
        let mut small = UarchConfig::typical();
        small.ruu_size = 8;
        let s = simulate(&prog, &small).unwrap();
        assert!(
            s.pipe.window_full_stalls > res.pipe.window_full_stalls,
            "8-entry RUU {} vs typical {}",
            s.pipe.window_full_stalls,
            res.pipe.window_full_stalls
        );
    }

    #[test]
    fn cpi_stack_components_are_consistent() {
        let prog = counted_loop(2000, 4);
        let res = simulate(&prog, &UarchConfig::typical()).unwrap();
        let stack = res.cpi_stack();
        assert!((stack.cpi - res.cpi()).abs() < 1e-12);
        // Components are non-negative and the stack reassembles the CPI
        // (base absorbs whatever the stall counters don't explain).
        for c in [
            stack.base,
            stack.fetch,
            stack.window,
            stack.exec,
            stack.commit,
            stack.redirect,
        ] {
            assert!(c >= 0.0, "negative component in {:?}", stack);
        }
        // Charges overlap in an out-of-order machine, so the stack can only
        // over-explain the CPI (base clamps at zero), never under-explain it.
        assert!(
            stack.base + stack.stall_total() >= stack.cpi - 1e-9,
            "stack under-explains the CPI: {:?}",
            stack
        );
        // Shares are the components normalized by the total CPI.
        let sh = stack.shares();
        assert!((sh.fetch - stack.fetch / stack.cpi).abs() < 1e-12);
        assert!((sh.exec - stack.exec / stack.cpi).abs() < 1e-12);
        assert_eq!(sh.cpi, 1.0);
    }

    #[test]
    fn cpi_stack_degenerate_inputs() {
        let empty = CpiStack::from_pipe(&PipeStats::default(), 1.5);
        assert_eq!(empty.base, 1.5);
        assert_eq!(empty.stall_total(), 0.0);
        assert_eq!(CpiStack::default().shares(), CpiStack::default());
    }

    #[test]
    fn pipe_stats_merge_is_additive() {
        let mut a = PipeStats {
            ruu_occ_sum: 10,
            dispatches: 5,
            window_full_stalls: 1,
            fetch_stall_cycles: 2,
            issue_wait_cycles: 3,
            commit_wait_cycles: 4,
            redirects: 1,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.dispatches, 10);
        assert_eq!(a.ruu_occ_sum, 20);
        assert_eq!(a.redirects, 2);
    }

    #[test]
    fn commit_is_monotone_and_bounded_by_width() {
        let prog = counted_loop(50, 6);
        let cfg = UarchConfig::typical();
        let mut core = Core::new(&cfg);
        let mut emu = emod_isa::Emulator::new(&prog);
        let mut last = 0;
        while let Ok(Some(r)) = emu.step() {
            core.step(&r);
            assert!(core.cycles() >= last, "commit time went backwards");
            last = core.cycles();
            if emu.halted() {
                break;
            }
        }
        // IPC can never exceed the commit width.
        assert!(core.retired() as f64 / core.cycles() as f64 <= cfg.issue_width as f64);
    }
}
