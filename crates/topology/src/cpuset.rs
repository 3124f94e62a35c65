//! Bitmask sets of hardware-thread (PU) OS indices.
//!
//! `CpuSet` plays the role of hwloc's `hwloc_bitmap_t` and of the kernel's
//! `Cpus_allowed_list`: it records which OS-indexed processing units a task
//! or object may run on. The textual form is the kernel "list format"
//! (`1-7,9-15,…`) used throughout `/proc/<pid>/status` and in the paper's
//! report listings.

use std::fmt;

/// A set of CPU (hardware thread) OS indices, stored as a bitmask.
///
/// Indices are arbitrary-width; storage grows on demand in 64-bit words.
/// All operations are O(words).
#[derive(Default, PartialEq, Eq, Hash)]
pub struct CpuSet {
    words: Vec<u64>,
}

impl Clone for CpuSet {
    fn clone(&self) -> Self {
        CpuSet {
            words: self.words.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Vec::clone_from reuses the existing allocation when it fits —
        // this is the sampling hot path's way to refresh a mask.
        self.words.clone_from(&source.words);
    }
}

impl CpuSet {
    /// The largest index [`CpuSet::parse_list`] accepts. List text
    /// comes from outside the program (`status`, sysfs) and a set's
    /// size is linear in its largest index, not in the text: `0-4294967295`
    /// is 512 MiB. Eight times the kernel's largest `NR_CPUS` (8 192),
    /// so a parsed set holds at most 8 KiB.
    pub const MAX_LIST_INDEX: u32 = 65_535;

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set containing exactly `idx`.
    pub fn single(idx: u32) -> Self {
        let mut s = Self::new();
        s.set(idx);
        s
    }

    /// Creates a set containing the inclusive range `lo..=hi`.
    pub fn range(lo: u32, hi: u32) -> Self {
        let mut s = Self::new();
        for i in lo..=hi {
            s.set(i);
        }
        s
    }

    /// Creates a set from an iterator of indices.
    pub fn from_indices<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut s = Self::new();
        for i in iter {
            s.set(i);
        }
        s
    }

    fn word_bit(idx: u32) -> (usize, u64) {
        ((idx / 64) as usize, 1u64 << (idx % 64))
    }

    /// Inserts `idx` into the set.
    pub fn set(&mut self, idx: u32) {
        let (w, b) = Self::word_bit(idx);
        match self.words.get_mut(w) {
            Some(word) => *word |= b,
            None => {
                self.words.resize(w, 0);
                self.words.push(b);
            }
        }
    }

    /// Inserts the inclusive range `lo..=hi` word-at-a-time: one mask
    /// OR per 64 indices instead of a resize check and a shift per
    /// index. Callers guarantee `lo <= hi`.
    pub fn set_range(&mut self, lo: u32, hi: u32) {
        let (wl, _) = Self::word_bit(lo);
        let (wh, _) = Self::word_bit(hi);
        if wh >= self.words.len() {
            self.words.resize(wh + 1, 0);
        }
        for (w, word) in self.words.iter_mut().enumerate().take(wh + 1).skip(wl) {
            let lo_bit = if w == wl { lo % 64 } else { 0 };
            let hi_bit = if w == wh { hi % 64 } else { 63 };
            let width = hi_bit - lo_bit + 1;
            let mask = if width == 64 {
                u64::MAX
            } else {
                ((1u64 << width) - 1) << lo_bit
            };
            *word |= mask;
        }
    }

    /// Removes `idx` from the set.
    pub fn clear(&mut self, idx: u32) {
        let (w, b) = Self::word_bit(idx);
        if let Some(word) = self.words.get_mut(w) {
            *word &= !b;
        }
    }

    /// Empties the set in place, keeping the word allocation.
    pub fn clear_all(&mut self) {
        self.words.clear();
    }

    /// Replaces this set's contents with `other`'s, reusing the existing
    /// allocation (alias for [`Clone::clone_from`], named for call sites
    /// where the reuse is the point).
    pub fn copy_from(&mut self, other: &CpuSet) {
        self.clone_from(other);
    }

    /// Returns true if `idx` is in the set.
    pub fn contains(&self, idx: u32) -> bool {
        let (w, b) = Self::word_bit(idx);
        self.words.get(w).is_some_and(|word| word & b != 0)
    }

    /// Number of indices in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set contains no indices.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Smallest index in the set, if any.
    pub fn first(&self) -> Option<u32> {
        self.iter().next()
    }

    /// Largest index in the set, if any.
    pub fn last(&self) -> Option<u32> {
        for (wi, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some(wi as u32 * 64 + 63 - w.leading_zeros());
            }
        }
        None
    }

    /// The `n`-th smallest index (0-based), if the set has that many.
    pub fn nth(&self, n: usize) -> Option<u32> {
        self.iter().nth(n)
    }

    /// Iterates over indices in ascending order.
    pub fn iter(&self) -> CpuSetIter<'_> {
        CpuSetIter {
            set: self,
            word: 0,
            mask: self.words.first().copied().unwrap_or(0),
        }
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &CpuSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &CpuSet) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place difference (`self \ other`).
    pub fn subtract(&mut self, other: &CpuSet) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !*b;
        }
    }

    /// Returns the union of two sets.
    pub fn union(&self, other: &CpuSet) -> CpuSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns the intersection of two sets.
    pub fn intersection(&self, other: &CpuSet) -> CpuSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self \ other`.
    pub fn difference(&self, other: &CpuSet) -> CpuSet {
        let mut s = self.clone();
        s.subtract(other);
        s
    }

    /// True if the two sets share at least one index.
    pub fn intersects(&self, other: &CpuSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// True if every index of `self` is in `other`.
    pub fn is_subset_of(&self, other: &CpuSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Parses the kernel list format, e.g. `"1-7,9-15,64"`.
    ///
    /// An empty or whitespace-only string parses to the empty set; an
    /// index above [`CpuSet::MAX_LIST_INDEX`] is an error.
    pub fn parse_list(s: &str) -> Result<CpuSet, CpuSetParseError> {
        let mut set = CpuSet::new();
        set.parse_list_into(s)?;
        Ok(set)
    }

    /// Parses the kernel list format into this set, replacing its
    /// contents while reusing the allocation. On error the set's
    /// contents are unspecified.
    pub fn parse_list_into(&mut self, s: &str) -> Result<(), CpuSetParseError> {
        // Clearing (not zeroing) keeps the allocation while matching a
        // freshly built set word-for-word — equality is
        // representation-based, so no trailing zero words may remain.
        self.words.clear();
        let set = self;
        let trimmed = s.trim();
        if trimmed.is_empty() {
            return Ok(());
        }
        for part in trimmed.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(CpuSetParseError::Empty);
            }
            let int = |token: &str| {
                token
                    .parse::<u32>()
                    .map_err(|_| CpuSetParseError::Int(part.into()))
            };
            let (lo, hi) = match part.split_once('-') {
                Some((lo, hi)) => (int(lo.trim())?, int(hi.trim())?),
                None => {
                    let v = int(part)?;
                    (v, v)
                }
            };
            if lo > hi {
                return Err(CpuSetParseError::Range(lo, hi));
            }
            if hi > Self::MAX_LIST_INDEX {
                return Err(CpuSetParseError::TooLarge(hi));
            }
            set.set_range(lo, hi);
        }
        while set.words.last() == Some(&0) {
            set.words.pop();
        }
        Ok(())
    }

    /// Parses the kernel hex mask format used by `Cpus_allowed`,
    /// e.g. `"ff"` or `"ffffffff,ffffffff"` (most significant word first).
    pub fn parse_mask(s: &str) -> Result<CpuSet, CpuSetParseError> {
        let mut set = CpuSet::new();
        let groups: Vec<&str> = s.trim().split(',').collect();
        // Kernel prints 32-bit groups, most significant first.
        let n = groups.len();
        for (gi, g) in groups.iter().enumerate() {
            let v = u32::from_str_radix(g.trim(), 16)
                .map_err(|_| CpuSetParseError::Int((*g).into()))?;
            let base = ((n - 1 - gi) as u32) * 32;
            for bit in 0..32 {
                if v & (1 << bit) != 0 {
                    set.set(base + bit);
                }
            }
        }
        Ok(set)
    }

    /// Formats the set in kernel list format (`1-7,9-15`), the format used
    /// in the paper's LWP report `CPUs:` column.
    pub fn to_list_string(&self) -> String {
        self.to_string()
    }

    /// The maximal runs of consecutive indices, ascending, as
    /// `(first, last)`: the walk behind the kernel list format, shared
    /// by [`CpuSet::write_list`] and the `/proc` record writer.
    pub fn ranges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let mut iter = self.iter().peekable();
        std::iter::from_fn(move || {
            let first = iter.next()?;
            let mut last = first;
            while let Some(next) = last.checked_add(1).and_then(|n| iter.next_if_eq(&n)) {
                last = next;
            }
            Some((first, last))
        })
    }

    /// Streams the kernel list format into a writer without allocating —
    /// the zero-copy sibling of [`CpuSet::to_list_string`].
    pub fn write_list<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        for (i, (start, end)) in self.ranges().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            if start == end {
                write!(out, "{start}")?;
            } else {
                write!(out, "{start}-{end}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for CpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_list(f)
    }
}

impl fmt::Debug for CpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CpuSet[{}]", self.to_list_string())
    }
}

impl FromIterator<u32> for CpuSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Self::from_indices(iter)
    }
}

/// Iterator over the indices of a [`CpuSet`] in ascending order.
pub struct CpuSetIter<'a> {
    set: &'a CpuSet,
    word: usize,
    mask: u64,
}

impl Iterator for CpuSetIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.mask != 0 {
                let bit = self.mask.trailing_zeros();
                self.mask &= self.mask - 1;
                return Some(self.word as u32 * 64 + bit);
            }
            self.word += 1;
            self.mask = *self.set.words.get(self.word)?;
        }
    }
}

/// Errors produced by [`CpuSet::parse_list`] / [`CpuSet::parse_mask`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuSetParseError {
    /// An empty element between commas.
    Empty,
    /// A non-integer token.
    Int(String),
    /// A descending range like `7-3`.
    Range(u32, u32),
    /// An index above [`CpuSet::MAX_LIST_INDEX`].
    TooLarge(u32),
}

impl fmt::Display for CpuSetParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuSetParseError::Empty => write!(f, "empty element in cpu list"),
            CpuSetParseError::Int(tok) => write!(f, "invalid integer token {tok:?} in cpu list"),
            CpuSetParseError::Range(lo, hi) => write!(f, "descending cpu range {lo}-{hi}"),
            CpuSetParseError::TooLarge(idx) => write!(
                f,
                "cpu index {idx} in cpu list is above {}",
                CpuSet::MAX_LIST_INDEX
            ),
        }
    }
}

impl std::error::Error for CpuSetParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_basics() {
        let s = CpuSet::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.first(), None);
        assert_eq!(s.last(), None);
        assert_eq!(s.to_list_string(), "");
    }

    #[test]
    fn set_and_contains() {
        let mut s = CpuSet::new();
        s.set(0);
        s.set(63);
        s.set(64);
        s.set(127);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(127));
        assert!(!s.contains(1) && !s.contains(65) && !s.contains(128));
        assert_eq!(s.count(), 4);
        assert_eq!(s.first(), Some(0));
        assert_eq!(s.last(), Some(127));
    }

    #[test]
    fn clear_removes() {
        let mut s = CpuSet::range(0, 7);
        s.clear(3);
        assert!(!s.contains(3));
        assert_eq!(s.count(), 7);
        // clearing an out-of-range index is a no-op
        s.clear(1000);
        assert_eq!(s.count(), 7);
    }

    #[test]
    fn list_format_roundtrip() {
        let s = CpuSet::parse_list("1-7,9-15,17-23").unwrap();
        assert_eq!(s.to_list_string(), "1-7,9-15,17-23");
        assert_eq!(s.count(), 21);
    }

    #[test]
    fn list_format_singletons() {
        let s = CpuSet::parse_list("0,2,4,6").unwrap();
        assert_eq!(s.to_list_string(), "0,2,4,6");
    }

    #[test]
    fn list_format_frontier_other_thread() {
        // The "Other" thread mask from Listing 2 of the paper.
        let text = "1-7,9-15,17-23,25-31,33-39,41-47,49-55,57-63,65-71,73-79,81-87,89-95,97-103,105-111,113-119,121-127";
        let s = CpuSet::parse_list(text).unwrap();
        assert_eq!(s.to_list_string(), text);
        assert_eq!(s.count(), 112);
        assert!(!s.contains(0) && !s.contains(8) && !s.contains(120));
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            CpuSet::parse_list("3-1"),
            Err(CpuSetParseError::Range(3, 1))
        ));
        assert!(matches!(
            CpuSet::parse_list("a"),
            Err(CpuSetParseError::Int(_))
        ));
        assert!(matches!(
            CpuSet::parse_list("1,,2"),
            Err(CpuSetParseError::Empty)
        ));
        assert_eq!(CpuSet::parse_list("").unwrap(), CpuSet::new());
    }

    #[test]
    fn a_listed_index_is_bounded_where_text_becomes_a_set() {
        let max = CpuSet::MAX_LIST_INDEX;
        // The ceiling itself is a cpu like any other.
        for text in [format!("{max}"), format!("0-{max}"), format!("3,{max}")] {
            let s = CpuSet::parse_list(&text).unwrap();
            assert_eq!(s.last(), Some(max), "{text}");
            assert!(s.words.len() * 8 <= 8 * 1024, "{text}");
        }
        // One past it, in either spelling and anywhere in the list, is
        // refused before anything is sized to it.
        let mut s = CpuSet::new();
        for text in [
            format!("{}", max + 1),
            format!("0-{}", max + 1),
            "4294967295".to_string(),
            "0-4294967295".to_string(),
            "0-3,4294967295".to_string(),
            "0-3,8-4294967295".to_string(),
        ] {
            let err = s.parse_list_into(&text).unwrap_err();
            assert!(
                matches!(err, CpuSetParseError::TooLarge(n) if n > max),
                "{text}: {err}"
            );
            assert!(s.words.capacity() * 8 <= 8 * 1024, "{text}");
        }
        // A mask's size is linear in its text: no ceiling needed.
        let wide = ["ffffffff"; 4096].join(",");
        assert_eq!(CpuSet::parse_mask(&wide).unwrap().count(), 4096 * 32);
    }

    #[test]
    fn parse_mask_single_group() {
        let s = CpuSet::parse_mask("ff").unwrap();
        assert_eq!(s, CpuSet::range(0, 7));
    }

    #[test]
    fn parse_mask_multi_group_msb_first() {
        // "1,00000000" = bit 32 set.
        let s = CpuSet::parse_mask("1,00000000").unwrap();
        assert_eq!(s, CpuSet::single(32));
    }

    #[test]
    fn set_ops() {
        let a = CpuSet::range(0, 7);
        let b = CpuSet::range(4, 11);
        assert_eq!(a.union(&b), CpuSet::range(0, 11));
        assert_eq!(a.intersection(&b), CpuSet::range(4, 7));
        assert_eq!(a.difference(&b), CpuSet::range(0, 3));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&CpuSet::range(100, 110)));
        assert!(CpuSet::range(2, 3).is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn parse_list_into_reuses_and_compares_equal() {
        let mut s = CpuSet::range(0, 200);
        s.parse_list_into("1-7").unwrap();
        // Must compare equal to a freshly built set despite having held a
        // wider mask before (trailing zero words dropped).
        assert_eq!(s, CpuSet::parse_list("1-7").unwrap());
        s.parse_list_into("").unwrap();
        assert!(s.is_empty());
        assert_eq!(s, CpuSet::new());
        assert!(s.parse_list_into("7-3").is_err());
    }

    #[test]
    fn clear_all_and_copy_from() {
        let mut s = CpuSet::range(0, 127);
        s.clear_all();
        assert!(s.is_empty());
        assert_eq!(s, CpuSet::new());
        let src = CpuSet::from_indices([3u32, 65]);
        s.copy_from(&src);
        assert_eq!(s, src);
    }

    #[test]
    fn set_range_matches_per_index_set() {
        for (lo, hi) in [
            (0u32, 0u32),
            (0, 63),
            (0, 64),
            (5, 5),
            (5, 63),
            (5, 64),
            (63, 64),
            (64, 127),
            (3, 200),
            (127, 128),
        ] {
            let mut ranged = CpuSet::new();
            ranged.set_range(lo, hi);
            assert_eq!(ranged, CpuSet::from_indices(lo..=hi), "{lo}-{hi}");
        }
    }

    #[test]
    fn write_list_matches_to_list_string() {
        for text in ["", "0", "0,2,4", "1-7,9-15,64", "0-127"] {
            let s = CpuSet::parse_list(text).unwrap();
            let mut streamed = String::new();
            s.write_list(&mut streamed).unwrap();
            assert_eq!(streamed, s.to_list_string());
            assert_eq!(streamed, text);
        }
    }

    #[test]
    fn nth_and_iter_order() {
        let s = CpuSet::from_indices([5u32, 1, 200, 64]);
        let v: Vec<u32> = s.iter().collect();
        assert_eq!(v, vec![1, 5, 64, 200]);
        assert_eq!(s.nth(2), Some(64));
        assert_eq!(s.nth(4), None);
    }
}
