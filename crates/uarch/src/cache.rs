//! Set-associative caches with true-LRU replacement.

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Marks a way that holds no line. A line is a power of two of at least two
/// bytes, so every tag is `addr >> line_shift` with `line_shift ≥ 1` and
/// stays below `u64::MAX`.
const EMPTY_WAY: u64 = u64::MAX;

/// A set-associative cache model (tags only — data lives in the functional
/// memory). True-LRU replacement, write-allocate.
///
/// # Examples
///
/// ```
/// use emod_uarch::Cache;
///
/// let mut c = Cache::new(1024, 2, 64);
/// assert!(!c.access(0x40));  // cold miss
/// assert!(c.access(0x40));   // now resident
/// assert!(c.access(0x44));   // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// `sets × assoc` tags. Each set's slice is in LRU order (front = MRU),
    /// with unfilled ways, holding [`EMPTY_WAY`], at the back.
    tags: Vec<u64>,
    assoc: usize,
    set_shift: u32,
    set_mask: u64,
    line_shift: u32,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size` bytes, `assoc` ways and `line` byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, a line that is not
    /// a power of two of at least two bytes, non-power-of-two set count).
    pub fn new(size: u64, assoc: u32, line: u64) -> Self {
        assert!(
            size > 0 && assoc > 0 && line > 1 && line.is_power_of_two(),
            "degenerate geometry"
        );
        let lines = size / line;
        let sets = (lines / assoc as u64).max(1);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            tags: vec![EMPTY_WAY; (sets * assoc as u64) as usize],
            assoc: assoc as usize,
            set_shift: line.trailing_zeros(),
            set_mask: sets - 1,
            line_shift: line.trailing_zeros() + sets.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// The ways of the set `addr` maps to, and the tag it carries.
    fn ways_and_tag(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let set = ((addr >> self.set_shift) & self.set_mask) as usize;
        let start = set * self.assoc;
        (start..start + self.assoc, addr >> self.line_shift)
    }

    /// Accesses `addr`; returns whether it hit. Updates LRU state and
    /// allocates on miss.
    pub fn access(&mut self, addr: u64) -> bool {
        let (ways, tag) = self.ways_and_tag(addr);
        let ways = &mut self.tags[ways];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            ways[..=pos].rotate_right(1);
            self.stats.hits += 1;
            true
        } else {
            // The back way is the LRU line or an unfilled way: it goes.
            ways.rotate_right(1);
            ways[0] = tag;
            self.stats.misses += 1;
            false
        }
    }

    /// Whether `addr` is resident, without updating any state.
    pub fn probe(&self, addr: u64) -> bool {
        let (ways, tag) = self.ways_and_tag(addr);
        self.tags[ways].contains(&tag)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (state is kept — used at sampling-window
    /// boundaries).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_then_hot() {
        let mut c = Cache::new(4096, 1, 64);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 4 KiB direct mapped, 64 B lines -> 64 sets; addresses 4 KiB apart
        // conflict.
        let mut c = Cache::new(4096, 1, 64);
        assert!(!c.access(0));
        assert!(!c.access(4096));
        assert!(!c.access(0), "must have been evicted");
    }

    #[test]
    fn two_way_avoids_single_conflict() {
        let mut c = Cache::new(4096, 2, 64);
        assert!(!c.access(0));
        assert!(!c.access(4096)); // same set, other way
        assert!(c.access(0), "2-way keeps both");
        assert!(c.access(4096));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(2 * 64, 2, 64); // one set, two ways
        c.access(0); // A
        c.access(64); // B
        c.access(0); // touch A -> B is LRU
        c.access(128); // C evicts B
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = Cache::new(2 * 64, 2, 64);
        c.access(0);
        c.access(64);
        assert!(c.probe(0));
        // Probing 0 must not refresh it: 0 is still LRU? No — access order
        // was 0 then 64, so 0 is LRU; adding a new line evicts 0.
        c.access(128);
        assert!(!c.probe(0));
    }

    #[test]
    fn larger_cache_fits_working_set() {
        let mut small = Cache::new(8 * 1024, 1, 64);
        let mut large = Cache::new(128 * 1024, 1, 64);
        // Stream over 64 KiB twice.
        for round in 0..2 {
            for addr in (0..64 * 1024u64).step_by(64) {
                small.access(addr);
                large.access(addr);
                let _ = round;
            }
        }
        assert!(large.stats().hits > small.stats().hits);
        assert!(small.stats().miss_rate() > 0.9);
        assert!(large.stats().miss_rate() < 0.6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = Cache::new(3 * 64, 1, 64);
    }

    /// The `Vec`-per-set true-LRU cache the flat tag array replaced: each
    /// set holds its resident tags front = MRU and grows to `assoc`.
    struct ReferenceLru {
        sets: Vec<Vec<u64>>,
        assoc: usize,
        set_shift: u32,
        set_mask: u64,
        line_shift: u32,
        stats: CacheStats,
    }

    impl ReferenceLru {
        fn new(size: u64, assoc: u32, line: u64) -> Self {
            let sets = (size / line / assoc as u64).max(1);
            ReferenceLru {
                sets: vec![Vec::with_capacity(assoc as usize); sets as usize],
                assoc: assoc as usize,
                set_shift: line.trailing_zeros(),
                set_mask: sets - 1,
                line_shift: line.trailing_zeros() + sets.trailing_zeros(),
                stats: CacheStats::default(),
            }
        }

        fn set_and_tag(&self, addr: u64) -> (usize, u64) {
            let set = ((addr >> self.set_shift) & self.set_mask) as usize;
            (set, addr >> self.line_shift)
        }

        fn access(&mut self, addr: u64) -> bool {
            let (set, tag) = self.set_and_tag(addr);
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|&t| t == tag) {
                let t = ways.remove(pos);
                ways.insert(0, t);
                self.stats.hits += 1;
                true
            } else {
                if ways.len() == self.assoc {
                    ways.pop();
                }
                ways.insert(0, tag);
                self.stats.misses += 1;
                false
            }
        }

        fn probe(&self, addr: u64) -> bool {
            let (set, tag) = self.set_and_tag(addr);
            self.sets[set].contains(&tag)
        }
    }

    #[test]
    fn flat_tags_match_the_reference_lru_on_every_table2_geometry() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Table 2's cache sizes (il1/dl1 8–128 KiB, ul2 256 KiB–8 MiB) at
        // every associativity it uses, plus one-set caches.
        let sizes = [128, 512, 8 << 10, 32 << 10, 128 << 10, 256 << 10, 8 << 20];
        for (g, &size) in sizes.iter().enumerate() {
            for assoc in [1u32, 2, 4, 8] {
                let mut flat = Cache::new(size, assoc, 64);
                let mut reference = ReferenceLru::new(size, assoc, 64);
                let mut rng = StdRng::seed_from_u64(g as u64 * 16 + assoc as u64);
                let mut last = 0u64;
                for i in 0..20_000 {
                    // Re-touch the previous line, walk a footprint of twice
                    // the cache (conflicts and capacity misses), or jump
                    // anywhere in the 64-bit space.
                    let addr = match rng.gen_range(0..4u32) {
                        0 => last.wrapping_add(rng.gen_range(0..128u64)),
                        1 | 2 => rng.gen_range(0..2 * size),
                        _ => rng.gen::<u64>(),
                    };
                    last = addr;
                    let ctx = (size, assoc, i, addr);
                    assert_eq!(flat.access(addr), reference.access(addr), "{:?}", ctx);
                    let other = rng.gen_range(0..2 * size);
                    assert_eq!(flat.probe(other), reference.probe(other), "{:?}", ctx);
                    assert_eq!(flat.stats(), reference.stats, "{:?}", ctx);
                }
            }
        }
    }
}
