//! SMARTS-style statistically sampled simulation (Wunderlich et al., ISCA
//! 2003), the methodology the paper uses to make hundreds of design-point
//! measurements affordable (§5).
//!
//! Execution alternates between *functional warming* (architectural
//! execution plus cache/branch-predictor state updates — cheap) and
//! *detailed* phases (full timing). Detailed phases consist of a warm-up
//! prefix, whose timing is discarded, and a measurement window whose CPI is
//! recorded. Windows are spaced systematically (1 in every `interval`
//! windows). Total execution time is estimated as `mean CPI × total
//! instructions`, with a CLT-based confidence interval, as in the paper:
//! "< 1% error (with 99.7% confidence)".

use crate::core::{Core, CpiStack, PipeStats, SimResult};
use crate::memsys::AccessKind;
use crate::UarchConfig;
use emod_isa::{EmuError, Emulator, InstKind, Program, Retired, INST_BYTES};
use emod_telemetry as telemetry;

/// Sampling parameters. The defaults mirror the paper: window 1000,
/// sampling interval 1000 (1 in every 1000 windows measured).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Instructions per measurement window.
    pub window: u64,
    /// One window is measured out of every `interval` windows.
    pub interval: u64,
    /// Detailed warm-up instructions before each measured window.
    pub warmup: u64,
    /// Instruction budget for the whole run.
    pub fuel: u64,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            window: 1000,
            interval: 1000,
            warmup: 2000,
            fuel: 20_000_000_000,
        }
    }
}

/// Result of a sampled simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledResult {
    /// Estimated total execution time in cycles.
    pub cycles: u64,
    /// Total retired instructions (exact).
    pub instructions: u64,
    /// Mean CPI across measured windows.
    pub cpi: f64,
    /// Relative half-width of the 99.7% (3σ) confidence interval on CPI.
    pub rel_error: f64,
    /// Number of measured windows.
    pub windows: u64,
    /// Program exit value.
    pub exit_value: i64,
    /// Estimated total energy (mean per-instruction energy in measured
    /// windows × total instructions; same units as [`crate::op_energy`]).
    pub energy: f64,
    /// Pipeline stall/occupancy counters accumulated over every *detailed*
    /// phase (warm-up prefixes included; functional warming contributes
    /// nothing). `pipe.dispatches` is the detailed-instruction count.
    pub pipe: PipeStats,
}

impl SampledResult {
    /// Decomposes the sampled CPI into the stall components observed during
    /// detailed phases — the same breakdown as
    /// [`SimResult::cpi_stack`](crate::SimResult::cpi_stack), computed per
    /// detailed instruction.
    pub fn cpi_stack(&self) -> CpiStack {
        CpiStack::from_pipe(&self.pipe, self.cpi)
    }
}

/// Runs a full detailed (unsampled) simulation.
///
/// # Errors
///
/// Propagates architectural faults and fuel exhaustion from the emulator.
pub fn simulate(program: &Program, cfg: &UarchConfig) -> Result<SimResult, EmuError> {
    let _span = telemetry::span("uarch.simulate");
    let mut core = Core::new(cfg);
    let mut emu = Emulator::new(program);
    let exit = emu.run_with(u64::MAX, |r| core.step(r))?;
    let result = core.result(exit);
    record_sim_stats(&result);
    Ok(result)
}

/// Records one detailed simulation's counters and streams a `uarch`/`sim`
/// event. Cold path — called once per simulation, never per instruction.
fn record_sim_stats(res: &SimResult) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter_add("uarch.sims", 1);
    record_core_counters(res);
    telemetry::event(
        "uarch",
        "sim",
        &[
            ("cycles", res.cycles.into()),
            ("instructions", res.instructions.into()),
            ("ipc", res.ipc().into()),
            ("il1_miss_rate", res.il1.miss_rate().into()),
            ("dl1_miss_rate", res.dl1.miss_rate().into()),
            ("ul2_miss_rate", res.ul2.miss_rate().into()),
            ("bpred_mispredict_rate", res.bpred.mispredict_rate().into()),
            ("ruu_occ_mean", res.pipe.mean_ruu_occupancy().into()),
            ("window_full_stalls", res.pipe.window_full_stalls.into()),
            ("fetch_stall_cycles", res.pipe.fetch_stall_cycles.into()),
            ("issue_wait_cycles", res.pipe.issue_wait_cycles.into()),
            ("commit_wait_cycles", res.pipe.commit_wait_cycles.into()),
            ("redirects", res.pipe.redirects.into()),
        ],
    );
}

/// Folds a simulation's cache/predictor/pipeline counters into the registry
/// (shared by detailed and sampled runs).
fn record_core_counters(res: &SimResult) {
    telemetry::counter_add("uarch.sim_instructions", res.instructions);
    telemetry::counter_add("uarch.sim_cycles", res.cycles);
    telemetry::counter_add("uarch.il1.hits", res.il1.hits);
    telemetry::counter_add("uarch.il1.misses", res.il1.misses);
    telemetry::counter_add("uarch.dl1.hits", res.dl1.hits);
    telemetry::counter_add("uarch.dl1.misses", res.dl1.misses);
    telemetry::counter_add("uarch.ul2.hits", res.ul2.hits);
    telemetry::counter_add("uarch.ul2.misses", res.ul2.misses);
    telemetry::counter_add("uarch.bpred_dir.hits", res.bpred.dir_hits);
    telemetry::counter_add("uarch.bpred_dir.misses", res.bpred.dir_misses);
    telemetry::counter_add("uarch.pipe.window_full_stalls", res.pipe.window_full_stalls);
    telemetry::counter_add("uarch.pipe.fetch_stall_cycles", res.pipe.fetch_stall_cycles);
    telemetry::counter_add("uarch.pipe.issue_wait_cycles", res.pipe.issue_wait_cycles);
    telemetry::counter_add("uarch.pipe.commit_wait_cycles", res.pipe.commit_wait_cycles);
    telemetry::counter_add("uarch.pipe.redirects", res.pipe.redirects);
    telemetry::observe("uarch.ipc", res.ipc());
    telemetry::observe("uarch.ruu_occupancy", res.pipe.mean_ruu_occupancy());
}

/// Runs a SMARTS-sampled simulation.
///
/// The detailed warm-up before each window re-establishes pipeline and
/// queue state; caches and the branch predictor stay functionally warm
/// throughout. Programs shorter than a few sampling units fall back to
/// fully detailed simulation (exact answer, `rel_error` 0).
///
/// # Errors
///
/// Propagates architectural faults and fuel exhaustion from the emulator.
///
/// # Panics
///
/// Panics if `sample.window` or `sample.interval` is zero.
pub fn simulate_sampled(
    program: &Program,
    cfg: &UarchConfig,
    sample: &SampleConfig,
) -> Result<SampledResult, EmuError> {
    let _span = telemetry::span("uarch.simulate_sampled");
    let unit = sample.window * sample.interval;
    assert!(unit > 0, "sampling window and interval must be non-zero");
    // For tiny programs, measure everything.
    let mut core = Core::new(cfg);
    let mut emu = Emulator::new(program);

    let mut window_cpis: Vec<f64> = Vec::new();
    let mut window_epis: Vec<f64> = Vec::new(); // energy per instruction
    let mut executed: u64 = 0;
    let mut detailed_insts: u64 = 0;

    // Phase machine: within each unit of `unit` instructions, the first
    // `warmup + window` run detailed, the rest functionally warm.
    let detailed_span = sample.warmup + sample.window;
    let mut phase_start_cycles = 0u64;
    let mut phase_start_insts = 0u64;
    let mut phase_start_energy = 0.0f64;
    let mut warm_line = u64::MAX;
    // `executed % unit`, kept as a wrapping counter: a division per retired
    // instruction is a visible share of functional warming.
    let mut pos_in_unit = 0u64;

    while executed < sample.fuel {
        let detailed = pos_in_unit < detailed_span;
        if pos_in_unit == 0 {
            core.reset_timing();
        }
        if pos_in_unit == sample.warmup {
            phase_start_cycles = core.cycles();
            phase_start_insts = core.retired();
            phase_start_energy = core.energy();
        }
        let Some(r) = emu.step()? else { break };
        if detailed {
            core.step(&r);
            detailed_insts += 1;
            if pos_in_unit == sample.warmup + sample.window - 1 {
                let dcycles = core.cycles() - phase_start_cycles;
                let dinsts = core.retired() - phase_start_insts;
                if dinsts > 0 {
                    window_cpis.push(dcycles as f64 / dinsts as f64);
                    window_epis.push((core.energy() - phase_start_energy) / dinsts as f64);
                }
            }
        } else {
            warm(&mut core, &r, &mut warm_line);
        }
        executed += 1;
        pos_in_unit += 1;
        if pos_in_unit == unit {
            pos_in_unit = 0;
        }
        if emu.halted() {
            break;
        }
    }
    if !emu.halted() && executed >= sample.fuel {
        return Err(EmuError::OutOfFuel);
    }
    let exit_value = emu.exit_value();

    if window_cpis.is_empty() {
        // Too short to complete even one window: everything ran detailed
        // inside the first unit, so the core clock is the exact answer.
        let res = SampledResult {
            cycles: core.cycles(),
            instructions: executed,
            cpi: if executed > 0 {
                core.cycles() as f64 / core.retired().max(1) as f64
            } else {
                0.0
            },
            rel_error: 0.0,
            windows: 0,
            exit_value,
            energy: core.energy(),
            pipe: core.pipe_total(),
        };
        record_sampled_stats(&res, &core, exit_value, detailed_insts, 0.0);
        return Ok(res);
    }

    let n = window_cpis.len() as f64;
    let mean = window_cpis.iter().sum::<f64>() / n;
    let var = window_cpis
        .iter()
        .map(|c| (c - mean) * (c - mean))
        .sum::<f64>()
        / n.max(1.0);
    let rel_error = if n > 1.0 && mean > 0.0 {
        3.0 * (var / n).sqrt() / mean
    } else {
        1.0
    };
    let mean_epi = window_epis.iter().sum::<f64>() / window_epis.len() as f64;
    let res = SampledResult {
        cycles: (mean * executed as f64).round() as u64,
        instructions: executed,
        cpi: mean,
        rel_error,
        windows: window_cpis.len() as u64,
        exit_value,
        energy: mean_epi * executed as f64,
        pipe: core.pipe_total(),
    };
    record_sampled_stats(&res, &core, exit_value, detailed_insts, var);
    Ok(res)
}

/// Records a sampled simulation: SMARTS-level stats (windows, CPI spread,
/// detailed-vs-functional split) plus the cache/predictor counters the core
/// kept warm across the whole run. Cold path — once per simulation.
fn record_sampled_stats(
    res: &SampledResult,
    core: &Core,
    exit_value: i64,
    detailed_insts: u64,
    cpi_var: f64,
) {
    if !telemetry::enabled() {
        return;
    }
    // Whole-run cache/predictor stats live in the core (functional warming
    // keeps them current even outside measured windows).
    let full = core.result(exit_value);
    record_core_counters(&full);
    let functional_insts = res.instructions - detailed_insts;
    telemetry::counter_add("uarch.smarts.sims", 1);
    telemetry::counter_add("uarch.smarts.windows", res.windows);
    telemetry::counter_add("uarch.smarts.detailed_insts", detailed_insts);
    telemetry::counter_add("uarch.smarts.functional_insts", functional_insts);
    telemetry::observe("uarch.smarts.rel_error", res.rel_error);
    telemetry::event(
        "smarts",
        "sampled_sim",
        &[
            ("windows", res.windows.into()),
            ("cpi_mean", res.cpi.into()),
            ("cpi_var", cpi_var.into()),
            ("rel_error", res.rel_error.into()),
            ("detailed_insts", detailed_insts.into()),
            ("functional_insts", functional_insts.into()),
            (
                "detailed_fraction",
                (detailed_insts as f64 / res.instructions.max(1) as f64).into(),
            ),
            ("est_cycles", res.cycles.into()),
        ],
    );
}

/// Functional warming: keep caches and predictor state current without
/// computing any timing. `last_line` dedupes icache touches within a line.
fn warm(core: &mut Core, r: &Retired, last_line: &mut u64) {
    let line = r.fetch_addr() & !(crate::config::LINE_SIZE - 1);
    if line != *last_line {
        core.mem_mut().warm(AccessKind::Fetch, line);
        *last_line = line;
    }
    match r.inst.kind() {
        InstKind::Load => {
            if let Some(a) = r.mem_addr {
                core.mem_mut().warm(AccessKind::Read, a);
            }
        }
        InstKind::Store => {
            if let Some(a) = r.mem_addr {
                core.mem_mut().warm(AccessKind::Write, a);
            }
        }
        InstKind::Prefetch => {
            if let Some(a) = r.mem_addr {
                core.mem_mut().warm(AccessKind::Prefetch, a);
            }
        }
        InstKind::Branch => {
            let pc = r.pc as u64 * INST_BYTES;
            core.bpred_mut().update_direction(pc, r.taken);
            if r.taken {
                core.bpred_mut().update_target(pc, r.next_pc);
            }
        }
        InstKind::Jump => {
            core.bpred_mut()
                .update_target(r.pc as u64 * INST_BYTES, r.next_pc);
        }
        InstKind::Call => {
            core.bpred_mut()
                .update_target(r.pc as u64 * INST_BYTES, r.next_pc);
            core.bpred_mut().push_return(r.pc + 1);
        }
        InstKind::Ret => {
            let _ = core.bpred_mut().pop_return();
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emod_isa::{AluOp, BranchCond, Inst, ProgramBuilder, Reg};

    /// A loop big enough for several sampling units.
    fn big_loop(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        b.push(Inst::LoadImm { rd: Reg(8), imm: 0 });
        b.push(Inst::LoadImm {
            rd: Reg(9),
            imm: iters,
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
        b.push(Inst::Alu {
            op: AluOp::Add,
            rd: Reg(12),
            rs: Reg(12),
            rt: Reg(11),
        });
        b.push(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg(10),
            rs: Reg(10),
            imm: 8,
        });
        b.push(Inst::AluImm {
            op: AluOp::And,
            rd: Reg(10),
            rs: Reg(10),
            imm: 0x1fff_ffff,
        });
        b.push(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg(8),
            rs: Reg(8),
            imm: 1,
        });
        b.branch_to(BranchCond::Lt, Reg(8), Reg(9), "loop");
        b.push(Inst::Alu {
            op: AluOp::Add,
            rd: emod_isa::abi::RV,
            rs: Reg(8),
            rt: Reg(0),
        });
        b.push(Inst::Halt);
        b.build().unwrap()
    }

    #[test]
    fn sampled_matches_detailed_within_tolerance() {
        let prog = big_loop(400_000);
        let cfg = UarchConfig::typical();
        let detailed = simulate(&prog, &cfg).unwrap();
        let sample = SampleConfig {
            window: 500,
            interval: 20,
            warmup: 1000,
            fuel: u64::MAX,
        };
        let sampled = simulate_sampled(&prog, &cfg, &sample).unwrap();
        assert_eq!(sampled.exit_value, detailed.exit_value);
        assert_eq!(sampled.instructions, detailed.instructions);
        let rel = (sampled.cycles as f64 - detailed.cycles as f64).abs() / detailed.cycles as f64;
        assert!(
            rel < 0.05,
            "sampling error {:.3} (sampled {} detailed {})",
            rel,
            sampled.cycles,
            detailed.cycles
        );
        assert!(sampled.windows > 10);
    }

    #[test]
    fn sampling_reports_confidence() {
        let prog = big_loop(200_000);
        let cfg = UarchConfig::typical();
        let sample = SampleConfig {
            window: 500,
            interval: 50,
            warmup: 500,
            fuel: u64::MAX,
        };
        let res = simulate_sampled(&prog, &cfg, &sample).unwrap();
        assert!(
            res.rel_error >= 0.0 && res.rel_error < 0.2,
            "{}",
            res.rel_error
        );
    }

    #[test]
    fn sampled_pipe_counters_cover_all_detailed_phases() {
        let prog = big_loop(400_000);
        let cfg = UarchConfig::typical();
        let sample = SampleConfig {
            window: 500,
            interval: 20,
            warmup: 1000,
            fuel: u64::MAX,
        };
        let res = simulate_sampled(&prog, &cfg, &sample).unwrap();
        // Every detailed phase (warmup + window per unit) dispatches through
        // the timing core; the accumulated counters must cover far more than
        // one unit's worth.
        assert!(res.windows > 10);
        assert!(
            res.pipe.dispatches > sample.warmup + sample.window,
            "pipe stats cover only the last unit: {} dispatches",
            res.pipe.dispatches
        );
        let stack = res.cpi_stack();
        assert!((stack.cpi - res.cpi).abs() < 1e-12);
        assert!(
            stack.stall_total() > 0.0,
            "no stall activity recorded: {:?}",
            stack
        );
    }

    #[test]
    fn tiny_programs_fall_back_to_exact() {
        let prog = big_loop(10);
        let cfg = UarchConfig::typical();
        let detailed = simulate(&prog, &cfg).unwrap();
        let sampled = simulate_sampled(&prog, &cfg, &SampleConfig::default()).unwrap();
        assert_eq!(sampled.windows, 0);
        assert_eq!(sampled.cycles, detailed.cycles);
    }

    #[test]
    fn out_of_fuel_is_reported() {
        let prog = big_loop(100_000);
        let cfg = UarchConfig::typical();
        let sample = SampleConfig {
            fuel: 1000,
            ..SampleConfig::default()
        };
        assert_eq!(
            simulate_sampled(&prog, &cfg, &sample).unwrap_err(),
            EmuError::OutOfFuel
        );
    }
}
