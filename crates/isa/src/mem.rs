//! Sparse paged byte-addressable memory.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A sparse 64-bit address space backed by 4 KiB pages allocated on demand.
///
/// Unwritten memory reads as zero, which matches zero-initialized globals and
/// bss in the programs the compiler emits.
///
/// # Examples
///
/// ```
/// use emod_isa::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_u64(0x1000_0000, 0xdead_beef);
/// assert_eq!(mem.read_u64(0x1000_0000), 0xdead_beef);
/// assert_eq!(mem.read_u64(0x2000_0000), 0); // untouched memory is zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

/// Hashes a page number with one multiply by the 64-bit golden ratio.
///
/// Every load and store looks its page up, so the hash is on the
/// per-instruction path; page numbers come from the program's own address
/// arithmetic, so SipHash's resistance to chosen keys buys nothing here.
/// The table picks buckets by the low bits of the hash, which after a
/// multiply depend only on the page number's low bits: the consecutive
/// pages of one data or stack region land in distinct buckets.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    fn write_u64(&mut self, page: u64) {
        self.0 = page.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of resident pages (for footprint diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// The page holding `addr`, allocated (zeroed) on first touch.
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads a little-endian u64 (unaligned access allowed).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 8 {
            // Fast path: the value lives in one page.
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(page) => u64::from_le_bytes(page[off..off + 8].try_into().expect("8 bytes")),
                None => 0,
            }
        } else {
            let mut v = 0u64;
            for i in 0..8 {
                v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
            }
            v
        }
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 8 {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            for i in 0..8 {
                self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
            }
        }
    }

    /// Reads an i64.
    pub fn read_i64(&self, addr: u64) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes an i64.
    pub fn write_i64(&mut self, addr: u64, value: i64) {
        self.write_u64(addr, value as u64);
    }

    /// Reads an f64 (bit pattern).
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an f64 (bit pattern).
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Copies a byte slice into memory starting at `addr`, one copy per
    /// page it touches.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = bytes.len().min(PAGE_SIZE - off);
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
            addr = addr.wrapping_add(n as u64);
            bytes = &bytes[n..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_on_fresh_read() {
        let mem = Memory::new();
        assert_eq!(mem.read_u8(12345), 0);
        assert_eq!(mem.read_u64(0xffff_ffff_0000), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn u64_roundtrip_and_endianness() {
        let mut mem = Memory::new();
        mem.write_u64(100, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u8(100), 0x08); // little endian LSB first
        assert_eq!(mem.read_u8(107), 0x01);
        assert_eq!(mem.read_u64(100), 0x0102_0304_0506_0708);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles a page boundary
        mem.write_u64(addr, u64::MAX);
        assert_eq!(mem.read_u64(addr), u64::MAX);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn signed_and_float_roundtrip() {
        let mut mem = Memory::new();
        mem.write_i64(8, -42);
        assert_eq!(mem.read_i64(8), -42);
        mem.write_f64(16, -2.5);
        assert_eq!(mem.read_f64(16), -2.5);
    }

    #[test]
    fn write_bytes_across_three_pages_matches_bytewise_writes() {
        // From an unaligned start in page 4 through page 6.
        let start = 5 * PAGE_SIZE as u64 - 37;
        let bytes: Vec<u8> = (0..PAGE_SIZE + 100).map(|i| (i * 7 % 251) as u8).collect();
        let mut paged = Memory::new();
        paged.write_bytes(start, &bytes);
        let mut bytewise = Memory::new();
        for (i, &b) in bytes.iter().enumerate() {
            bytewise.write_u8(start + i as u64, b);
        }
        assert_eq!(paged.resident_pages(), 3);
        assert_eq!(paged.resident_pages(), bytewise.resident_pages());
        for addr in 3 * PAGE_SIZE as u64..8 * PAGE_SIZE as u64 {
            assert_eq!(
                paged.read_u8(addr),
                bytewise.read_u8(addr),
                "byte {:#x}",
                addr
            );
        }
        // Pages 3 and 7 were never written: they read zero and stay absent.
        assert_eq!(paged.read_u64(3 * PAGE_SIZE as u64), 0);
        assert_eq!(paged.read_u64(7 * PAGE_SIZE as u64 + 8), 0);
        assert_eq!(paged.resident_pages(), 3);
    }

    #[test]
    fn write_bytes_copies() {
        let mut mem = Memory::new();
        mem.write_bytes(1000, &[1, 2, 3]);
        assert_eq!(mem.read_u8(1000), 1);
        assert_eq!(mem.read_u8(1002), 3);
        assert_eq!(mem.read_u8(1003), 0);
    }
}
