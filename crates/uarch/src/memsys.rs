//! The memory hierarchy: IL1 + DL1 over a unified L2 over fixed-latency
//! DRAM.

use crate::cache::{Cache, CacheStats};
use crate::config::{UarchConfig, IL1_ASSOC, IL1_LATENCY, LINE_SIZE};

/// What kind of access is being performed (for statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch.
    Fetch,
    /// Data read.
    Read,
    /// Data write (write-allocate).
    Write,
    /// Software prefetch (allocates, latency not on the critical path).
    Prefetch,
}

/// The cache hierarchy, shared between detailed simulation and SMARTS
/// functional warming.
#[derive(Debug, Clone)]
pub struct MemSys {
    il1: Cache,
    dl1: Cache,
    ul2: Cache,
    dl1_latency: u32,
    ul2_latency: u32,
    mem_latency: u32,
}

impl MemSys {
    /// Builds the hierarchy for a configuration.
    pub fn new(cfg: &UarchConfig) -> Self {
        MemSys {
            il1: Cache::new(cfg.il1_size, IL1_ASSOC, LINE_SIZE),
            dl1: Cache::new(cfg.dl1_size, cfg.dl1_assoc, LINE_SIZE),
            ul2: Cache::new(cfg.ul2_size, cfg.ul2_assoc, LINE_SIZE),
            dl1_latency: cfg.dl1_latency,
            ul2_latency: cfg.ul2_latency,
            mem_latency: cfg.mem_latency,
        }
    }

    /// Performs a timed access and returns its latency in cycles.
    pub fn access(&mut self, kind: AccessKind, addr: u64) -> u64 {
        match kind {
            AccessKind::Fetch => {
                if self.il1.access(addr) {
                    IL1_LATENCY as u64
                } else if self.ul2.access(addr) {
                    (IL1_LATENCY + self.ul2_latency) as u64
                } else {
                    (IL1_LATENCY + self.ul2_latency + self.mem_latency) as u64
                }
            }
            AccessKind::Read | AccessKind::Write | AccessKind::Prefetch => {
                if self.dl1.access(addr) {
                    self.dl1_latency as u64
                } else if self.ul2.access(addr) {
                    (self.dl1_latency + self.ul2_latency) as u64
                } else {
                    (self.dl1_latency + self.ul2_latency + self.mem_latency) as u64
                }
            }
        }
    }

    /// Functional warming: updates cache state without computing timing
    /// (used by SMARTS between measured windows; state must stay warm or
    /// the measured windows would see inflated cold-miss rates).
    pub fn warm(&mut self, kind: AccessKind, addr: u64) {
        let _ = self.access(kind, addr);
    }

    /// IL1 statistics.
    pub fn il1_stats(&self) -> CacheStats {
        self.il1.stats()
    }

    /// DL1 statistics.
    pub fn dl1_stats(&self) -> CacheStats {
        self.dl1.stats()
    }

    /// L2 statistics.
    pub fn ul2_stats(&self) -> CacheStats {
        self.ul2.stats()
    }

    /// Resets statistics, keeping cache state.
    pub fn reset_stats(&mut self) {
        self.il1.reset_stats();
        self.dl1.reset_stats();
        self.ul2.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> UarchConfig {
        UarchConfig::typical()
    }

    #[test]
    fn latency_tiers() {
        let c = cfg();
        let mut m = MemSys::new(&c);
        let cold = m.access(AccessKind::Read, 0x1000_0000);
        assert_eq!(cold, (c.dl1_latency + c.ul2_latency + c.mem_latency) as u64);
        let hot = m.access(AccessKind::Read, 0x1000_0000);
        assert_eq!(hot, c.dl1_latency as u64);
    }

    #[test]
    fn l2_hit_tier() {
        let c = cfg();
        let mut m = MemSys::new(&c);
        m.access(AccessKind::Read, 0x1000_0000);
        // Evict from DL1 (32 KiB direct-mapped) by touching a conflicting
        // address, but small enough to stay in the 1 MiB L2.
        m.access(AccessKind::Read, 0x1000_0000 + c.dl1_size);
        let lat = m.access(AccessKind::Read, 0x1000_0000);
        assert_eq!(lat, (c.dl1_latency + c.ul2_latency) as u64);
    }

    #[test]
    fn prefetch_warms_dl1() {
        let c = cfg();
        let mut m = MemSys::new(&c);
        m.access(AccessKind::Prefetch, 0x2000_0000);
        let lat = m.access(AccessKind::Read, 0x2000_0000);
        assert_eq!(lat, c.dl1_latency as u64);
    }

    #[test]
    fn fetch_and_data_share_l2_but_not_l1() {
        let c = cfg();
        let mut m = MemSys::new(&c);
        m.access(AccessKind::Fetch, 0x400);
        // A data read of the same line misses DL1 but hits L2.
        let lat = m.access(AccessKind::Read, 0x400);
        assert_eq!(lat, (c.dl1_latency + c.ul2_latency) as u64);
    }

    #[test]
    fn memory_latency_parameter_matters() {
        let mut slow_cfg = cfg();
        slow_cfg.mem_latency = 150;
        let mut fast_cfg = cfg();
        fast_cfg.mem_latency = 50;
        let mut slow = MemSys::new(&slow_cfg);
        let mut fast = MemSys::new(&fast_cfg);
        assert!(slow.access(AccessKind::Read, 0) > fast.access(AccessKind::Read, 0));
    }
}
