//! The one row writer: the CSV rows of the §3.6 log (`zerosum-core`'s
//! `export`) and the simulated `/proc` records of [`crate::format`] are
//! assembled by a [`Row`] in a fixed stack buffer — byte literals,
//! integers two digits a step from a table, padded integers, scaled
//! decimals, CPU lists — which is validated and appended to the `String`
//! when it is full (a spill) and when the row drops. A piece longer than
//! the buffer is appended directly. Every byte is what `core::fmt` prints
//! for the same value; nothing allocates but the `String`'s growth, and
//! nothing panics (the sampling round and the abnormal-exit path run it).

use std::fmt::{self, Write as _};
use zerosum_topology::CpuSet;

/// Bytes a row assembles before it spills: two or three CSV rows of the
/// log, a `/proc/stat` line, half a task `status`.
pub const ROW_BYTES: usize = 128;

/// `"00"`, `"01"`, …, `"99"`: the two digits of every value below 100.
const PAIRS: &[u8; 200] = b"00010203040506070809101112131415161718192021222324252627282930313233\
    343536373839404142434445464748495051525354555657585960616263646566\
    676869707172737475767778798081828384858687888990919293949596979899";

/// How many digits `{}` prints for `v`.
fn width_of(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Writes the last `slots.len()` digits of `v` into `slots`, zeros in
/// front, two a step from the right; returns the digits left over.
fn fill_digits(slots: &mut [u8], mut v: u64) -> u64 {
    let mut pairs = slots.rchunks_exact_mut(2);
    for pair in pairs.by_ref() {
        let at = (v % 100) as usize * 2;
        v /= 100;
        if let Some(two) = PAIRS.get(at..at + 2) {
            pair.copy_from_slice(two);
        }
    }
    if let Some(first) = pairs.into_remainder().first_mut() {
        *first = b'0' + (v % 10) as u8;
        v /= 10;
    }
    v
}

/// Text under assembly for `out`: appended when the buffer is full and
/// when the row is dropped.
pub struct Row<'a> {
    out: &'a mut String,
    buf: [u8; ROW_BYTES],
    len: usize,
}

impl<'a> Row<'a> {
    /// An empty row that will append to `out`.
    #[inline]
    pub fn new(out: &'a mut String) -> Row<'a> {
        let buf = [0; ROW_BYTES];
        Row { out, buf, len: 0 }
    }

    /// Hands what is assembled to the `String`. The buffer only ever
    /// holds whole `str`s, so the check cannot fail.
    #[cold]
    fn spill(&mut self) {
        if let Some(Ok(text)) = self.buf.get(..self.len).map(std::str::from_utf8) {
            self.out.push_str(text);
        }
        self.len = 0;
    }

    /// The next `n` bytes of the buffer, spilling first when they do
    /// not fit; `None` when `n` is more than the whole buffer.
    fn slots(&mut self, n: usize) -> Option<&mut [u8]> {
        if self.len + n > ROW_BYTES {
            self.spill();
        }
        let at = self.len;
        let slots = self.buf.get_mut(at..at + n)?;
        self.len = at + n;
        Some(slots)
    }

    /// Appends `s`.
    #[inline]
    pub fn append(&mut self, s: &str) {
        match self.slots(s.len()) {
            Some(slots) => slots.copy_from_slice(s.as_bytes()),
            None => self.out.push_str(s), // longer than the whole buffer
        }
    }

    /// Appends `c`.
    #[inline]
    pub fn chr(&mut self, c: char) {
        self.append(c.encode_utf8(&mut [0; 4]));
    }

    /// Appends what `{}` prints for `v`.
    #[inline]
    pub fn dec(&mut self, v: u64) {
        if let Some(slots) = self.slots(width_of(v)) {
            fill_digits(slots, v);
        }
    }

    /// Appends what `{}` prints for `v`.
    #[inline]
    pub fn dec_signed(&mut self, v: i64) {
        if v < 0 {
            self.append("-");
        }
        self.dec(v.unsigned_abs());
    }

    /// Appends what `{:>width$}` prints for `v`.
    #[inline]
    pub fn dec_padded(&mut self, v: u64, width: usize) {
        for _ in width_of(v)..width {
            self.append(" ");
        }
        self.dec(v);
    }

    /// Appends `v` with a point before its last `places` digits: what
    /// `{:.places$}` prints for `v / 10^places`, and `{}` for `v` when
    /// `places` is 0.
    #[inline]
    pub fn dec_scaled(&mut self, v: u64, places: usize) {
        if places == 0 {
            return self.dec(v);
        }
        let whole = width_of(v).saturating_sub(places).max(1);
        let Some(slots) = self.slots(whole + 1 + places) else {
            let _ = write!(self, "0.{v:0places$}"); // so many places that `whole` is 0
            return;
        };
        if let Some((whole, [point, fraction @ ..])) = slots.split_at_mut_checked(whole) {
            *point = b'.';
            let left = fill_digits(fraction, v);
            fill_digits(whole, left);
        }
    }

    /// Appends `set` in the kernel's list format (`0-3,8`): what
    /// [`CpuSet::write_list`] prints.
    #[inline]
    pub fn cpu_list(&mut self, set: &CpuSet) {
        for (i, (first, last)) in set.ranges().enumerate() {
            self.append(if i > 0 { "," } else { "" });
            self.dec(u64::from(first));
            if last != first {
                self.append("-");
                self.dec(u64::from(last));
            }
        }
    }
}

impl fmt::Write for Row<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.append(s);
        Ok(())
    }
}

impl Drop for Row<'_> {
    #[inline]
    fn drop(&mut self) {
        self.spill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What one row prints: `build` on a row over a fresh `String`.
    fn row(build: impl FnOnce(&mut Row)) -> String {
        let mut out = String::new();
        build(&mut Row::new(&mut out));
        out
    }

    #[test]
    fn scaled_decimals_print_what_fmt_prints_of_the_scaled_value() {
        for v in [0u64, 1, 9, 10, 99, 100, 12_345, 999_999, u64::MAX] {
            for places in 0..=25usize {
                let exact = v as u128;
                let text = match 10u128.checked_pow(places as u32) {
                    Some(scale) if places > 0 => {
                        format!("{}.{:0places$}", exact / scale, exact % scale)
                    }
                    _ => format!("{v}"),
                };
                assert_eq!(
                    row(|r| r.dec_scaled(v, places)),
                    text,
                    "{v} places {places}"
                );
            }
        }
    }

    #[test]
    fn pieces_keep_their_order_across_spills() {
        let long = "é".repeat(ROW_BYTES);
        let mut want = String::from("head\n");
        let mut out = want.clone();
        {
            let mut r = Row::new(&mut out);
            for i in 0..3u64 {
                r.dec_padded(i, ROW_BYTES + 3);
                r.append(&long);
                r.chr('ß');
                let _ = write!(r, "{:.3}", 1e300);
                r.dec_signed(-(i as i64));
                write!(
                    want,
                    "{i:>w$}{long}ß{:.3}{}",
                    1e300,
                    -(i as i64),
                    w = ROW_BYTES + 3
                )
                .unwrap();
            }
        }
        assert_eq!(out, want);
    }

    #[test]
    fn cpu_lists_print_what_write_list_prints() {
        for text in ["", "0", "0,2,4", "1-7,9-15,64", "0-127", "5,7-8,4094-4095"] {
            let set = CpuSet::parse_list(text).unwrap();
            assert_eq!(row(|r| r.cpu_list(&set)), text);
        }
    }
}
