//! The combined branch predictor of Table 2's parameter 16: a bimodal
//! predictor and a 2-level (gshare) predictor of equal size, arbitrated by a
//! chooser table, plus a BTB and a return-address stack.

/// 2-bit saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter2(u8);

impl Counter2 {
    fn taken(&self) -> bool {
        self.0 >= 2
    }

    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Combined bimodal + 2-level predictor with BTB and RAS.
///
/// # Examples
///
/// ```
/// use emod_uarch::BranchPredictor;
///
/// let mut bp = BranchPredictor::new(2048);
/// // A branch that is always taken trains quickly.
/// for _ in 0..8 { bp.update_direction(0x40, true); }
/// assert!(bp.predict_direction(0x40));
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    bimodal: Vec<Counter2>,
    gshare: Vec<Counter2>,
    chooser: Vec<Counter2>, // >=2 selects gshare
    history: u64,
    history_bits: u32,
    mask: u64,
    btb: Vec<(u64, u32)>, // (pc tag, target); direct-mapped
    ras: Vec<u32>,
    stats: BpredStats,
}

/// Prediction accuracy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BpredStats {
    /// Correctly predicted conditional branches.
    pub dir_hits: u64,
    /// Mispredicted conditional branches.
    pub dir_misses: u64,
}

impl BpredStats {
    /// Conditional-branch mispredict ratio in `[0, 1]`; zero when no
    /// branches were predicted.
    pub fn mispredict_rate(&self) -> f64 {
        let total = self.dir_hits + self.dir_misses;
        if total == 0 {
            0.0
        } else {
            self.dir_misses as f64 / total as f64
        }
    }
}

const BTB_ENTRIES: usize = 512;
const RAS_DEPTH: usize = 16;

impl BranchPredictor {
    /// Creates a predictor whose bimodal/gshare/chooser tables each have
    /// `size` entries.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn new(size: u32) -> Self {
        assert!(
            size.is_power_of_two(),
            "predictor size must be a power of two"
        );
        let n = size as usize;
        BranchPredictor {
            bimodal: vec![Counter2(1); n],
            gshare: vec![Counter2(1); n],
            chooser: vec![Counter2(1); n],
            history: 0,
            history_bits: size.trailing_zeros().min(16),
            mask: (size - 1) as u64,
            btb: vec![(u64::MAX, 0); BTB_ENTRIES],
            ras: Vec::with_capacity(RAS_DEPTH),
            stats: BpredStats::default(),
        }
    }

    /// Instruction-granular key: strip the byte offset within an
    /// instruction so table index bits are not wasted on constant-zero
    /// address bits.
    fn pc_key(pc: u64) -> u64 {
        pc >> emod_isa::INST_BYTES.trailing_zeros()
    }

    fn gshare_index(&self, pc: u64) -> usize {
        let key = Self::pc_key(pc);
        ((key ^ (self.history & ((1 << self.history_bits) - 1))) & self.mask) as usize
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict_direction(&self, pc: u64) -> bool {
        let bi = (Self::pc_key(pc) & self.mask) as usize;
        let gi = self.gshare_index(pc);
        if self.chooser[bi].taken() {
            self.gshare[gi].taken()
        } else {
            self.bimodal[bi].taken()
        }
    }

    /// Updates the predictor with the branch outcome; returns whether the
    /// prediction had been correct.
    pub fn update_direction(&mut self, pc: u64, taken: bool) -> bool {
        let bi = (Self::pc_key(pc) & self.mask) as usize;
        let gi = self.gshare_index(pc);
        let bim = self.bimodal[bi].taken();
        let gsh = self.gshare[gi].taken();
        let used_gshare = self.chooser[bi].taken();
        let predicted = if used_gshare { gsh } else { bim };
        // Chooser trains toward the component that was right.
        if bim != gsh {
            self.chooser[bi].update(gsh == taken);
        }
        self.bimodal[bi].update(taken);
        self.gshare[gi].update(taken);
        self.history = (self.history << 1) | taken as u64;
        let correct = predicted == taken;
        if correct {
            self.stats.dir_hits += 1;
        } else {
            self.stats.dir_misses += 1;
        }
        correct
    }

    /// Looks up the BTB for the target of the control instruction at `pc`.
    pub fn predict_target(&self, pc: u64) -> Option<u32> {
        let e = self.btb[(Self::pc_key(pc) as usize) % BTB_ENTRIES];
        if e.0 == pc {
            Some(e.1)
        } else {
            None
        }
    }

    /// Installs a target in the BTB.
    pub fn update_target(&mut self, pc: u64, target: u32) {
        self.btb[(Self::pc_key(pc) as usize) % BTB_ENTRIES] = (pc, target);
    }

    /// Pushes a return address on a call.
    pub fn push_return(&mut self, return_pc: u32) {
        if self.ras.len() == RAS_DEPTH {
            self.ras.remove(0);
        }
        self.ras.push(return_pc);
    }

    /// Pops the predicted return address.
    pub fn pop_return(&mut self) -> Option<u32> {
        self.ras.pop()
    }

    /// Accuracy statistics.
    pub fn stats(&self) -> BpredStats {
        self.stats
    }

    /// Resets statistics, keeping predictor state.
    pub fn reset_stats(&mut self) {
        self.stats = BpredStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter2(0);
        for _ in 0..10 {
            c.update(true);
        }
        assert_eq!(c.0, 3);
        for _ in 0..10 {
            c.update(false);
        }
        assert_eq!(c.0, 0);
    }

    #[test]
    fn learns_biased_branch() {
        let mut bp = BranchPredictor::new(512);
        let mut correct = 0;
        for i in 0..100 {
            if bp.update_direction(0x80, true) && i >= 4 {
                correct += 1;
            }
        }
        assert!(correct >= 90, "only {} correct", correct);
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        // T/N/T/N is hopeless for bimodal but trivial for history-based
        // prediction; the combined predictor must converge.
        let mut bp = BranchPredictor::new(2048);
        let mut taken = false;
        let mut correct_late = 0;
        for i in 0..400 {
            taken = !taken;
            if bp.update_direction(0x100, taken) && i >= 200 {
                correct_late += 1;
            }
        }
        assert!(
            correct_late >= 190,
            "pattern not learned: {}/200",
            correct_late
        );
    }

    #[test]
    fn small_predictor_aliases_more() {
        // Many distinct branch pcs with opposite biases: the small table
        // suffers destructive aliasing.
        let run = |size: u32| {
            let mut bp = BranchPredictor::new(size);
            let mut miss = 0;
            let mut lcg: u64 = 12345;
            for round in 0..60 {
                for b in 0..512u64 {
                    // Sites b and b+32 map to the same 512-entry bimodal
                    // slot once the 1024-instruction spread wraps the small
                    // table, and have opposite biases. Noise
                    // makes history-based prediction useless, so table
                    // capacity is the deciding factor.
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let noise = (lcg >> 33) % 10;
                    // b and b+256 share a 512-entry slot (key stride 2) and
                    // have opposite biases.
                    let biased_taken = (b & 256) != 0;
                    let taken = if noise == 0 {
                        !biased_taken
                    } else {
                        biased_taken
                    };
                    if !bp.update_direction(b * 2 * emod_isa::INST_BYTES, taken) && round > 4 {
                        miss += 1;
                    }
                }
            }
            miss
        };
        let small = run(512);
        let large = run(8192);
        assert!(
            small > large,
            "expected aliasing penalty: small {} large {}",
            small,
            large
        );
    }

    #[test]
    fn btb_roundtrip() {
        let mut bp = BranchPredictor::new(512);
        assert_eq!(bp.predict_target(0x44), None);
        bp.update_target(0x44, 99);
        assert_eq!(bp.predict_target(0x44), Some(99));
    }

    #[test]
    fn ras_predicts_nested_returns() {
        let mut bp = BranchPredictor::new(512);
        bp.push_return(10);
        bp.push_return(20);
        assert_eq!(bp.pop_return(), Some(20));
        assert_eq!(bp.pop_return(), Some(10));
        assert_eq!(bp.pop_return(), None);
    }
}
