//! The seeded generator the crates' property tests draw their cases
//! from: xorshift64, the same stream the parser fuzz differentials use.
//!
//! Test-only by location: each crate includes this file under
//! `#[cfg(test)]` (`#[path]` in its `lib.rs`); no library target
//! compiles it. A property that fails names its case number, and the
//! same seed replays the same cases on every host.

#![allow(dead_code)]

/// A deterministic stream of test cases.
pub struct Seeded(u64);

impl Seeded {
    /// A stream that depends on `seed` alone.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zeros fixed point.
        Seeded(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    /// The next 64 bits.
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// An integer in `lo..hi`.
    pub fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo).max(1)
    }

    /// A float in `lo..hi`.
    pub fn in_span(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// `len` floats in `lo..hi`, `len` drawn from `min_len..max_len`.
    pub fn floats(&mut self, min_len: u64, max_len: u64, lo: f64, hi: f64) -> Vec<f64> {
        (0..self.in_range(min_len, max_len))
            .map(|_| self.in_span(lo, hi))
            .collect()
    }

    /// Up to `max_len` distinct indices below `bound`, ascending.
    pub fn index_set(&mut self, bound: u64, max_len: u64) -> std::collections::BTreeSet<u32> {
        (0..self.in_range(0, max_len + 1))
            .map(|_| self.in_range(0, bound) as u32)
            .collect()
    }
}
