//! Parsers for the `/proc` text formats.
//!
//! These accept the exact formats the Linux kernel emits (`man 5 proc`),
//! including the awkward parenthesized-`comm` field of `stat` — a thread
//! name may itself contain spaces and parentheses, so the parser scans for
//! the *last* closing parenthesis, as every robust procfs consumer must.
//!
//! The parsers read **bytes** (`&str`, `String`, `&[u8]` — anything
//! `AsRef<[u8]>`; each public name is a shim over one scanner of
//! `&[u8]`, so the scanners stay in this crate's codegen unit): a
//! `/proc` text is ASCII except where it repeats a name somebody chose
//! — `comm`, `Name:` — and `prctl(PR_SET_NAME)` takes any bytes. Those two are decoded lossily (U+FFFD) into the
//! record; everything else is compared and converted as the bytes it
//! is. On every input the result is what the `str`-based reference
//! (`tests/oracle`) makes of `String::from_utf8_lossy` of it.

use crate::types::{CpuTimes, MemInfo, SystemStat, TaskStat, TaskState, TaskStatus};
use std::fmt;
use zerosum_topology::CpuSet;

/// Error produced when a `/proc` record cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Which file/record kind failed.
    pub what: &'static str,
    /// Description of the failure.
    pub detail: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to parse {}: {}", self.what, self.detail)
    }
}

impl std::error::Error for ParseError {}

fn err(what: &'static str, detail: impl Into<String>) -> ParseError {
    ParseError {
        what,
        detail: detail.into(),
    }
}

/// ASCII whitespace as `char::is_whitespace` sees it — `\t`, `\n`,
/// vertical tab, form feed, `\r`, space. `str::trim` strips exactly
/// these (plus non-ASCII whitespace, see [`trim`]); note that
/// `u8::is_ascii_whitespace` leaves the vertical tab out.
fn is_space(c: u8) -> bool {
    matches!(c, b'\t'..=b'\r' | b' ')
}

/// `str::trim` over a byte slice cut at ASCII bytes. The ASCII
/// whitespace goes byte-wise; only when a non-ASCII byte is then left
/// at either end (a Unicode space, or just a non-ASCII `Name:`) does
/// `str::trim` itself decide — where the bytes are UTF-8 at all: one
/// invalid sequence decodes to U+FFFD, which no number or key survives
/// trimmed or not ([`push_lossy_trimmed`] is for the one value that
/// does).
fn trim(b: &[u8]) -> &[u8] {
    let start = b.iter().position(|&c| !is_space(c)).unwrap_or(b.len());
    let end = b
        .iter()
        .rposition(|&c| !is_space(c))
        .map_or(start, |e| e + 1);
    let t = b.get(start..end).unwrap_or(&[]);
    match (t.first(), t.last()) {
        (Some(f), Some(l)) if !f.is_ascii() || !l.is_ascii() => {
            std::str::from_utf8(t).map_or(t, |s| s.trim().as_bytes())
        }
        _ => t,
    }
}

/// The lines of a `/proc` text: split at `\n`, the newline dropped. A
/// `\r` before it stays on the line, where every consumer treats it as
/// the whitespace it is.
struct Lines<'a>(&'a [u8]);

impl<'a> Iterator for Lines<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.0.is_empty() {
            return None;
        }
        let (line, rest) = self.0.split_at_checked(line_end(self.0))?;
        self.0 = rest.get(1..).unwrap_or(&[]);
        Some(line)
    }
}

/// The bytes of `word` equal to `byte`, as set high bits (a byte to a
/// bit at its top): a zero byte of `x` is a match, and the borrow of
/// the subtraction can set a false high bit only *above* a true one —
/// so the mask is zero exactly when nothing matches, and its lowest set
/// bit is always a true match.
fn matches_of(word: [u8; 8], byte: u8) -> u64 {
    const LO: u64 = u64::from_ne_bytes([0x01; 8]);
    const HI: u64 = u64::from_ne_bytes([0x80; 8]);
    let x = u64::from_le_bytes(word) ^ u64::from_ne_bytes([byte; 8]);
    x.wrapping_sub(LO) & !x & HI
}

/// Index of the first `\n` in `b`, or `b.len()`: eight bytes per step.
/// Most of a kernel `status` text is lines ZeroSum skips, so the
/// newline search is most of the parse, and at 24 bytes to the average
/// line a `memchr` call costs more than the search it starts.
fn line_end(b: &[u8]) -> usize {
    let mut at = 0;
    let mut rest = b;
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        let hit = matches_of(*word, b'\n');
        if hit != 0 {
            return at + (hit.trailing_zeros() / 8) as usize;
        }
        at += 8;
        rest = tail;
    }
    at + rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len())
}

/// The fields of one line: maximal runs of bytes that are not ASCII
/// whitespace (`split_ascii_whitespace` over bytes).
fn fields(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    line.split(u8::is_ascii_whitespace)
        .filter(|field| !field.is_empty())
}

/// Parses the full text of `/proc/stat`.
pub fn parse_system_stat(text: &(impl AsRef<[u8]> + ?Sized)) -> Result<SystemStat, ParseError> {
    let mut out = SystemStat::default();
    system_stat_into(text.as_ref(), &mut out)?;
    Ok(out)
}

/// Parses `/proc/stat` into an existing record, reusing its per-CPU
/// vector (the sampling hot path re-reads this every period; on a
/// many-core node the row vector is the dominant allocation). On error
/// the contents of `out` are unspecified.
///
/// A byte scan: only the first field of a line is looked at unless it
/// is one of the four kinds of row ZeroSum reads, so the multi-KB
/// `intr` line costs its newline search.
pub fn parse_system_stat_into(
    text: &(impl AsRef<[u8]> + ?Sized),
    out: &mut SystemStat,
) -> Result<(), ParseError> {
    system_stat_into(text.as_ref(), out)
}

fn system_stat_into(text: &[u8], out: &mut SystemStat) -> Result<(), ParseError> {
    out.cpus.clear();
    out.total = CpuTimes::default();
    out.ctxt = 0;
    out.processes = 0;
    let mut saw_total = false;
    let mut ascending = true;
    for line in Lines(text) {
        let mut fields = fields(line);
        let Some(key) = fields.next() else { continue };
        if let Some(idx) = key.strip_prefix(b"cpu") {
            if idx.is_empty() {
                out.total = parse_cpu_times(&mut fields)?;
                saw_total = true;
                continue;
            }
            let idx = ascii_u32(idx).ok_or_else(|| {
                let key = String::from_utf8_lossy(key);
                err("/proc/stat", format!("bad cpu row {key:?}"))
            })?;
            ascending &= out.cpus.last().is_none_or(|(last, _)| *last <= idx);
            out.cpus.push((idx, parse_cpu_times(&mut fields)?));
        } else if key == b"ctxt" {
            out.ctxt = next_u64(&mut fields, "/proc/stat ctxt")?;
        } else if key == b"processes" {
            out.processes = next_u64(&mut fields, "/proc/stat processes")?;
        }
    }
    if !saw_total {
        return Err(err("/proc/stat", "missing aggregate cpu row"));
    }
    // The kernel prints the rows ascending; the (stable) sort is for a
    // text that does not.
    if !ascending {
        out.cpus.sort_by_key(|(i, _)| *i);
    }
    Ok(())
}

fn next_u64<'a>(
    fields: &mut impl Iterator<Item = &'a [u8]>,
    what: &'static str,
) -> Result<u64, ParseError> {
    let field = fields.next().ok_or_else(|| err(what, "missing field"))?;
    ascii_u64(field).ok_or_else(|| err(what, "non-numeric field"))
}

fn parse_cpu_times<'a>(
    fields: &mut impl Iterator<Item = &'a [u8]>,
) -> Result<CpuTimes, ParseError> {
    let mut vals = [0u64; 8];
    for (i, v) in vals.iter_mut().enumerate() {
        // Kernels may omit trailing fields (steal etc.); treat as zero.
        match fields.next() {
            Some(field) => {
                *v = ascii_u64(field)
                    .ok_or_else(|| err("/proc/stat", format!("bad jiffy field {i}")))?
            }
            None if i >= 4 => break,
            None => return Err(err("/proc/stat", "cpu row too short")),
        }
    }
    let [user, nice, system, idle, iowait, irq, softirq, steal] = vals;
    Ok(CpuTimes {
        user,
        nice,
        system,
        idle,
        iowait,
        irq,
        softirq,
        steal,
    })
}

/// [`may_be_status_key`] for the keys of [`parse_meminfo`]: of a kernel
/// text's 54 lines only `SwapCached` gets past it without being one.
fn may_be_meminfo_key(line: &[u8]) -> bool {
    match line {
        [b'M', b'e', b'm', ..]
        | [b'B', b'u', b'f', ..]
        | [b'C', b'a', b'c', ..]
        | [b'S', b'w', b'a', ..] => true,
        [c, ..] => is_space(*c) || !c.is_ascii(),
        [] => false,
    }
}

/// Parses `/proc/meminfo`: the `status` scanner's pass (see
/// [`parse_task_status_into`]) over seven keys, listed in the order
/// both the kernel (`fs/proc/meminfo.c`; other lines in between) and
/// `format::write_meminfo` print them. Every line is visited, because
/// the last of a repeated key wins.
pub fn parse_meminfo(text: &(impl AsRef<[u8]> + ?Sized)) -> Result<MemInfo, ParseError> {
    meminfo(text.as_ref())
}

fn meminfo(text: &[u8]) -> Result<MemInfo, ParseError> {
    let mut m = MemInfo::default();
    let mut keyed: [(&[u8], &mut u64); 7] = [
        (b"MemTotal:", &mut m.mem_total_kib),
        (b"MemFree:", &mut m.mem_free_kib),
        (b"MemAvailable:", &mut m.mem_available_kib),
        (b"Buffers:", &mut m.buffers_kib),
        (b"Cached:", &mut m.cached_kib),
        (b"SwapTotal:", &mut m.swap_total_kib),
        (b"SwapFree:", &mut m.swap_free_kib),
    ];
    let mut saw_total = false;
    let mut cursor = 0usize;
    for line in Lines(text) {
        let (key, value_at) = match keyed.get(cursor) {
            Some((text, _)) if line.starts_with(text) => (cursor, text.len()),
            _ if !may_be_meminfo_key(line) => continue,
            _ => match lookup_key(keyed.iter().map(|(text, _)| *text).zip(0..), line) {
                Some(found) => found,
                None => continue,
            },
        };
        cursor = key + 1;
        saw_total |= key == 0;
        if let Some((_, field)) = keyed.get_mut(key) {
            **field = kib_value(trim(line.get(value_at..).unwrap_or(&[])));
        }
    }
    if !saw_total {
        return Err(err("/proc/meminfo", "missing MemTotal"));
    }
    Ok(m)
}

/// A borrowed view of one `/proc/<pid>/task/<tid>/stat` line: the same
/// fields as [`TaskStat`], with `comm` borrowing from the input text.
///
/// Produced by [`parse_task_stat_view`], this is the zero-allocation
/// form the sampling hot path uses; [`TaskStatView::to_owned`] and
/// [`TaskStatView::assign_to`] convert to the owning record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskStatView<'a> {
    /// Thread id.
    pub tid: u32,
    /// Executable / thread name, borrowed from the line as the bytes
    /// the kernel printed (a name is any 15 bytes, not always UTF-8).
    pub comm: &'a [u8],
    /// Scheduler state.
    pub state: TaskState,
    /// Minor page faults.
    pub minflt: u64,
    /// Major page faults.
    pub majflt: u64,
    /// User-mode jiffies.
    pub utime: u64,
    /// Kernel-mode jiffies.
    pub stime: u64,
    /// Nice value.
    pub nice: i32,
    /// Threads in the owning process.
    pub num_threads: u32,
    /// CPU last executed on (field 39).
    pub processor: u32,
    /// Pages swapped (field 36).
    pub nswap: u64,
    /// Start time after boot in clock ticks (field 22) — the PID-reuse
    /// discriminator.
    pub starttime: u64,
}

impl TaskStatView<'_> {
    /// Copies the view into a fresh owning [`TaskStat`].
    pub fn to_owned(&self) -> TaskStat {
        let mut out = TaskStat::default();
        self.assign_to(&mut out);
        out
    }

    /// Copies the view into an existing [`TaskStat`], reusing its `comm`
    /// buffer; `comm` is decoded lossily.
    pub fn assign_to(&self, out: &mut TaskStat) {
        out.tid = self.tid;
        out.comm.clear();
        push_lossy(&mut out.comm, self.comm);
        out.state = self.state;
        out.minflt = self.minflt;
        out.majflt = self.majflt;
        out.utime = self.utime;
        out.stime = self.stime;
        out.nice = self.nice;
        out.num_threads = self.num_threads;
        out.processor = self.processor;
        out.nswap = self.nswap;
        out.starttime = self.starttime;
    }
}

/// Appends `bytes` as text: valid UTF-8 as it is, every invalid
/// sequence as one U+FFFD — `String::from_utf8_lossy` into a buffer the
/// caller keeps.
fn push_lossy(out: &mut String, bytes: &[u8]) {
    if let Ok(text) = std::str::from_utf8(bytes) {
        return out.push_str(text);
    }
    for chunk in bytes.utf8_chunks() {
        out.push_str(chunk.valid());
        if !chunk.invalid().is_empty() {
            out.push(char::REPLACEMENT_CHARACTER);
        }
    }
}

/// Index of the last `)` in `b`, eight bytes per step from the end: a
/// kernel `stat` line carries some 250 bytes of numbers behind `comm`,
/// and the search for the parenthesis that closes it crosses them all.
/// (Which byte of a word matched is left to the bytewise tail: the mask
/// is only certain about its lowest bit.)
fn last_close_paren(b: &[u8]) -> Option<usize> {
    let mut rest = b;
    while let Some((head, word)) = rest.split_last_chunk::<8>() {
        if matches_of(*word, b')') != 0 {
            break;
        }
        rest = head;
    }
    rest.iter().rposition(|&c| c == b')')
}

/// Parses one `/proc/<pid>/task/<tid>/stat` line without allocating: the
/// returned view borrows `comm` from the input. Single pass over the
/// post-comm fields — no token vector is collected. The one `stat`
/// parser: every read form (typed `_into`, raw-text arena) ends here.
pub fn parse_task_stat_view(
    line: &(impl AsRef<[u8]> + ?Sized),
) -> Result<TaskStatView<'_>, ParseError> {
    stat_view(line.as_ref())
}

fn stat_view(line: &[u8]) -> Result<TaskStatView<'_>, ParseError> {
    // Format: "tid (comm) S field4 field5 ..." where comm may contain
    // anything including ')' — find the *last* ')'.
    let open = line
        .iter()
        .position(|&c| c == b'(')
        .ok_or_else(|| err("task stat", "missing '('"))?;
    let close = last_close_paren(line).ok_or_else(|| err("task stat", "missing ')'"))?;
    if close < open {
        return Err(err("task stat", "mismatched parentheses"));
    }
    let tid = ascii_u32(trim(line.get(..open).unwrap_or(&[])))
        .ok_or_else(|| err("task stat", "bad tid"))?;
    let comm = line.get(open + 1..close).unwrap_or(&[]);
    // Walk fields 3.. once, picking out the ones ZeroSum samples
    // (numbering per man 5 proc; the last one needed is 39).
    let mut state = None;
    let mut nice: i32 = 0;
    let mut minflt = 0u64;
    let mut majflt = 0u64;
    let mut utime = 0u64;
    let mut stime = 0u64;
    let mut num_threads = 0u64;
    let mut starttime = 0u64;
    let mut nswap = 0u64;
    let mut processor = 0u64;
    const FIELDS: [usize; 9] = [10, 12, 14, 15, 19, 20, 22, 36, 39];
    let mut it = fields(line.get(close + 1..).unwrap_or(&[]));
    let mut field = 2usize;
    while field < 39 {
        field += 1;
        let tok = match it.next() {
            Some(t) => t,
            // Report the first *sampled* field that is missing.
            None => {
                let missing = if field <= 3 {
                    3
                } else {
                    *FIELDS.iter().find(|&&f| f >= field).unwrap_or(&39)
                };
                return Err(err("task stat", format!("missing field {missing}")));
            }
        };
        match field {
            3 => {
                let state_ch = first_char(tok).ok_or_else(|| err("task stat", "empty state"))?;
                state = Some(
                    TaskState::from_code(state_ch)
                        .ok_or_else(|| err("task stat", format!("unknown state {state_ch:?}")))?,
                );
            }
            // nice is the one signed field.
            19 => nice = ascii_i32(tok).ok_or_else(|| err("task stat", "bad nice"))?,
            10 | 12 | 14 | 15 | 20 | 22 | 36 | 39 => {
                let v = ascii_u64(tok)
                    .ok_or_else(|| err("task stat", format!("bad numeric field {field}")))?;
                match field {
                    10 => minflt = v,
                    12 => majflt = v,
                    14 => utime = v,
                    15 => stime = v,
                    20 => num_threads = v,
                    22 => starttime = v,
                    36 => nswap = v,
                    _ => processor = v,
                }
            }
            _ => {}
        }
    }
    Ok(TaskStatView {
        tid,
        comm,
        state: state.ok_or_else(|| err("task stat", "empty state"))?,
        minflt,
        majflt,
        utime,
        stime,
        nice,
        num_threads: num_threads as u32,
        starttime,
        processor: processor as u32,
        nswap,
    })
}

/// Parses one `/proc/<pid>/task/<tid>/stat` line.
pub fn parse_task_stat(line: &(impl AsRef<[u8]> + ?Sized)) -> Result<TaskStat, ParseError> {
    stat_view(line.as_ref()).map(|v| v.to_owned())
}

/// [`parse_task_stat_view`] under the name the benchmark's replay calls.
pub fn parse_task_stat_view_fast(
    line: &(impl AsRef<[u8]> + ?Sized),
) -> Result<TaskStatView<'_>, ParseError> {
    stat_view(line.as_ref())
}

/// Unsigned ASCII decimal with `u64::from_str` semantics: optional
/// leading `+`, one or more digits, overflow is `None`.
fn ascii_u64(tok: &[u8]) -> Option<u64> {
    let digits = match tok.split_first() {
        Some((&b'+', rest)) => rest,
        _ => tok,
    };
    if digits.is_empty() {
        return None;
    }
    // Nineteen digits stay below 10^19 < 2^64: only a longer run pays
    // for checked arithmetic.
    let checked = digits.len() > 19;
    let mut v: u64 = 0;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = if checked {
            v.checked_mul(10)?.checked_add(u64::from(d))?
        } else {
            v.wrapping_mul(10).wrapping_add(u64::from(d))
        };
    }
    Some(v)
}

/// [`ascii_u64`] narrowed with `u32::from_str` semantics.
fn ascii_u32(tok: &[u8]) -> Option<u32> {
    ascii_u64(tok).and_then(|v| u32::try_from(v).ok())
}

/// Signed ASCII decimal with `i32::from_str` semantics: one optional
/// `+` or `-`, one or more digits, overflow is `None`.
fn ascii_i32(tok: &[u8]) -> Option<i32> {
    match tok.split_first() {
        Some((&b'-', digits)) if digits.first() != Some(&b'+') => {
            let magnitude = i64::try_from(ascii_u64(digits)?).ok()?;
            i32::try_from(-magnitude).ok()
        }
        _ => ascii_u64(tok).and_then(|v| i32::try_from(v).ok()),
    }
}

/// Parses a `stat` line into an existing record, reusing its `comm`
/// buffer. On error the contents of `out` are unspecified.
pub fn parse_task_stat_into(
    line: &(impl AsRef<[u8]> + ?Sized),
    out: &mut TaskStat,
) -> Result<(), ParseError> {
    stat_view(line.as_ref()).map(|view| view.assign_to(out))
}

/// Parses `/proc/<pid>/task/<tid>/schedstat`: the first three
/// ASCII-whitespace-separated integers (trailing tokens ignored). One
/// byte pass — schedstat is read once per task per round, as the delta
/// gate, before anything else.
pub fn parse_schedstat(
    text: &(impl AsRef<[u8]> + ?Sized),
) -> Result<crate::types::SchedStat, ParseError> {
    schedstat(text.as_ref())
}

fn schedstat(text: &[u8]) -> Result<crate::types::SchedStat, ParseError> {
    let mut it = fields(text);
    let mut next = |what: &'static str| -> Result<u64, ParseError> {
        let field = it
            .next()
            .ok_or_else(|| err("schedstat", format!("missing {what}")))?;
        ascii_u64(field).ok_or_else(|| err("schedstat", format!("bad {what}")))
    };
    Ok(crate::types::SchedStat {
        run_ns: next("run_ns")?,
        wait_ns: next("wait_ns")?,
        timeslices: next("timeslices")?,
    })
}

/// Parses `/proc/<pid>/task/<tid>/status`.
pub fn parse_task_status(text: &(impl AsRef<[u8]> + ?Sized)) -> Result<TaskStatus, ParseError> {
    let mut out = TaskStatus::default();
    status_into(text.as_ref(), &mut out)?;
    Ok(out)
}

/// The `status` keys ZeroSum reads, numbered as [`STATUS_ORDER`] lists
/// them: the cursor steps by discriminant.
#[derive(Clone, Copy)]
enum StatusKey {
    Name,
    State,
    Tgid,
    Pid,
    VmSize,
    VmHwm,
    VmRss,
    CpusAllowedList,
    Voluntary,
    Nonvoluntary,
}

/// The keys as the text carries them, colon included, in the order
/// both the kernel (`fs/proc/array.c`; other lines in between) and
/// `format::write_task_status` print them.
const STATUS_ORDER: [(&[u8], StatusKey); 10] = [
    (b"Name:", StatusKey::Name),
    (b"State:", StatusKey::State),
    (b"Tgid:", StatusKey::Tgid),
    (b"Pid:", StatusKey::Pid),
    (b"VmSize:", StatusKey::VmSize),
    (b"VmHWM:", StatusKey::VmHwm),
    (b"VmRSS:", StatusKey::VmRss),
    (b"Cpus_allowed_list:", StatusKey::CpusAllowedList),
    (b"voluntary_ctxt_switches:", StatusKey::Voluntary),
    (b"nonvoluntary_ctxt_switches:", StatusKey::Nonvoluntary),
];

/// Whether `line` can carry one of the [`STATUS_ORDER`] keys: it opens
/// with the first three bytes of one (each key is at least that long),
/// or with a byte the key-side `str::trim` might strip. A `false` is
/// proof the line is none of ZeroSum's — in a kernel `status`, all but
/// `VmStk`, `VmSwap` and `Cpus_allowed` of the 49 such lines.
fn may_be_status_key(line: &[u8]) -> bool {
    match line {
        [b'N', b'a', b'm', ..]
        | [b'S', b't', b'a', ..]
        | [b'T', b'g', b'i', ..]
        | [b'P', b'i', b'd', ..]
        | [b'V', b'm', b'S' | b'H' | b'R', ..]
        | [b'C', b'p', b'u', ..]
        | [b'v', b'o', b'l', ..]
        | [b'n', b'o', b'n', ..] => true,
        [c, ..] => is_space(*c) || !c.is_ascii(),
        [] => false,
    }
}

/// The key of a line the cursor did not predict, and where its value
/// starts: the text before the first `:`, trimmed, looked up by name
/// in `keys` (colon included there). `None` for a line without a colon
/// or with any other key.
fn lookup_key<'k, K>(
    keys: impl IntoIterator<Item = (&'k [u8], K)>,
    line: &[u8],
) -> Option<(K, usize)> {
    let colon = line.iter().position(|&c| c == b':')?;
    let name = trim(line.get(..colon)?);
    keys.into_iter()
        .find(|(text, _)| text.strip_suffix(b":") == Some(name))
        .map(|(_, key)| (key, colon + 1))
}

/// Parses a `status` record into an existing one, reusing its name
/// buffer and affinity-mask allocation. On error the contents of `out`
/// are unspecified.
///
/// One forward pass over the bytes, for any layout: the simulator's
/// ten lines, the kernel's sixty, keys missing (a kernel thread or a
/// zombie has no `Vm*`), padded, repeated or out of order, CRLF,
/// non-ASCII names. Every line is split off by [`line_end`] and
/// compared with the key the cursor expects next — the one after the
/// last key seen, in [`STATUS_ORDER`]. A miss is nearly always a line
/// that is none of ZeroSum's, which [`may_be_status_key`] proves from
/// three bytes; only what is left is looked up the long way. The
/// cursor is a prediction and not a requirement: a text that breaks
/// the order parses to the same record, only slower, and the last of
/// a repeated key wins.
pub fn parse_task_status_into(
    text: &(impl AsRef<[u8]> + ?Sized),
    out: &mut TaskStatus,
) -> Result<(), ParseError> {
    status_into(text.as_ref(), out)
}

fn status_into(text: &[u8], out: &mut TaskStatus) -> Result<(), ParseError> {
    out.name.clear();
    out.state = TaskState::Sleeping;
    out.vm_rss_kib = 0;
    out.vm_size_kib = 0;
    out.vm_hwm_kib = 0;
    out.cpus_allowed.clear_all();
    out.voluntary_ctxt_switches = 0;
    out.nonvoluntary_ctxt_switches = 0;
    let mut tid = None;
    let mut tgid = None;
    let mut cursor = 0usize;
    for line in Lines(text) {
        let (key, value_at) = match STATUS_ORDER.get(cursor) {
            Some(&(text, key)) if line.starts_with(text) => (key, text.len()),
            _ if !may_be_status_key(line) => continue,
            _ => match lookup_key(STATUS_ORDER, line) {
                Some(found) => found,
                None => continue,
            },
        };
        cursor = key as usize + 1;
        let value = trim(line.get(value_at..).unwrap_or(&[]));
        match key {
            StatusKey::Name => {
                out.name.clear();
                push_lossy_trimmed(&mut out.name, value);
            }
            StatusKey::State => {
                if let Some(c) = first_char(value) {
                    out.state = TaskState::from_code(c)
                        .ok_or_else(|| err("task status", format!("unknown state {c:?}")))?;
                }
            }
            StatusKey::Tgid => tgid = ascii_u32(value),
            StatusKey::Pid => tid = ascii_u32(value),
            StatusKey::VmSize => out.vm_size_kib = kib_value(value),
            StatusKey::VmHwm => out.vm_hwm_kib = kib_value(value),
            StatusKey::VmRss => out.vm_rss_kib = kib_value(value),
            StatusKey::CpusAllowedList => match single_cpu_range(value) {
                Some((lo, hi)) => {
                    out.cpus_allowed.clear_all();
                    out.cpus_allowed.set_range(lo, hi);
                }
                None => out
                    .cpus_allowed
                    .parse_list_into(&String::from_utf8_lossy(value))
                    .map_err(|e| err("task status", format!("bad cpu list: {e}")))?,
            },
            StatusKey::Voluntary => out.voluntary_ctxt_switches = ascii_u64(value).unwrap_or(0),
            StatusKey::Nonvoluntary => {
                out.nonvoluntary_ctxt_switches = ascii_u64(value).unwrap_or(0)
            }
        }
    }
    out.tid = tid.ok_or_else(|| err("task status", "missing Pid"))?;
    out.tgid = tgid.ok_or_else(|| err("task status", "missing Tgid"))?;
    Ok(())
}

/// [`parse_task_status_into`] under the name the benchmark's replay calls.
pub fn parse_task_status_fast(
    text: &(impl AsRef<[u8]> + ?Sized),
    out: &mut TaskStatus,
) -> Result<(), ParseError> {
    status_into(text.as_ref(), out)
}

/// A cpu list that is one `n` or one ascending `lo-hi`, unpadded — an
/// unrestricted task's, and what a rank pinned to a block of cores
/// has. Anything else (commas, padding, a descending range, an index
/// above the list ceiling) is `CpuSet::parse_list_into`'s to read or to
/// refuse.
fn single_cpu_range(value: &[u8]) -> Option<(u32, u32)> {
    let (lo, hi) = match value.iter().position(|&c| c == b'-') {
        Some(dash) => (value.get(..dash)?, value.get(dash + 1..)?),
        None => (value, value),
    };
    let (lo, hi) = (ascii_u32(lo)?, ascii_u32(hi)?);
    (lo <= hi && hi <= CpuSet::MAX_LIST_INDEX).then_some((lo, hi))
}

/// The first `char` of a value, decoded lossily.
fn first_char(value: &[u8]) -> Option<char> {
    match value.first() {
        Some(c) if c.is_ascii() => Some(char::from(*c)),
        _ => {
            let valid = value.utf8_chunks().next()?.valid();
            Some(valid.chars().next().unwrap_or(char::REPLACEMENT_CHARACTER))
        }
    }
}

/// `value`, decoded lossily and then trimmed as `str::trim` trims,
/// appended to `out`: the one value kept as text (`Name:`), where
/// [`trim`] on the bytes leaves a Unicode space standing if the value
/// is not UTF-8 throughout.
fn push_lossy_trimmed(out: &mut String, value: &[u8]) {
    let at = out.len();
    match std::str::from_utf8(value) {
        Ok(text) => out.push_str(text.trim()),
        Err(_) => {
            push_lossy(out, value);
            let text = out.get(at..).unwrap_or("");
            let (lead, kept) = (text.len() - text.trim_start().len(), text.trim().len());
            out.drain(at..at + lead);
            out.truncate(at + kept);
        }
    }
}

/// A `Vm*` value in KiB: every trailing `kB` stripped
/// (`trim_end_matches`), trimmed, then `u64::from_str` acceptance;
/// anything else is 0.
fn kib_value(value: &[u8]) -> u64 {
    let mut v = value;
    while let Some(stripped) = v.strip_suffix(b"kB") {
        v = stripped;
    }
    ascii_u64(trim(v)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{
        assert_meminfo_agrees, assert_schedstat_agrees, assert_stat_agrees, assert_status_agrees,
        assert_system_stat_agrees,
    };

    const STAT: &str = "\
cpu  100 2 50 840 5 1 2 0 0 0
cpu0 60 1 30 400 3 1 1 0 0 0
cpu1 40 1 20 440 2 0 1 0 0 0
intr 12345 0 0
ctxt 987654
btime 1700000000
processes 4242
procs_running 2
procs_blocked 0
";

    #[test]
    fn system_stat_parses() {
        let s = parse_system_stat(STAT).unwrap();
        assert_eq!(s.total.user, 100);
        assert_eq!(s.cpus.len(), 2);
        assert_eq!(s.cpus[1].0, 1);
        assert_eq!(s.cpus[1].1.idle, 440);
        assert_eq!(s.ctxt, 987654);
        assert_eq!(s.processes, 4242);
    }

    #[test]
    fn system_stat_requires_total_row() {
        assert!(parse_system_stat("cpu0 1 2 3 4\n").is_err());
    }

    #[test]
    fn system_stat_short_rows_ok() {
        // Ancient kernels emit only 4 fields.
        let s = parse_system_stat("cpu 1 2 3 4\ncpu0 1 2 3 4\n").unwrap();
        assert_eq!(s.total.idle, 4);
        assert_eq!(s.total.iowait, 0);
    }

    #[test]
    fn meminfo_parses() {
        let text = "\
MemTotal:       527942792 kB
MemFree:        480000000 kB
MemAvailable:   500000000 kB
Buffers:          100000 kB
Cached:          5000000 kB
SwapCached:            0 kB
SwapTotal:             0 kB
SwapFree:              0 kB
";
        let m = parse_meminfo(text).unwrap();
        assert_eq!(m.mem_total_kib, 527942792);
        assert_eq!(m.mem_available_kib, 500000000);
        assert_eq!(m.used_kib(), 27942792);
    }

    #[test]
    fn meminfo_requires_total() {
        assert!(parse_meminfo("MemFree: 5 kB\n").is_err());
    }

    #[test]
    fn meminfo_scanner_matches_oracle_on_fixtures_and_under_seeded_fuzz() {
        let kernel = include_str!("../../../tests/fixtures/proc_meminfo.txt");
        let rendered = "MemTotal:         1000 kB\nMemFree:           500 kB\n\
            MemAvailable:      600 kB\nBuffers:            10 kB\nCached:             20 kB\n\
            SwapTotal:           7 kB\nSwapFree:            3 kB\n";
        // Bottom up, every key but the first is one the cursor does not
        // predict: it must get past the three-byte filter by itself.
        let reversed: Vec<&str> = rendered.split_inclusive('\n').rev().collect();
        let mut fixtures = vec![
            String::new(),
            "\n\n:\n".into(),
            "MemFree: 5 kB\n".into(),
            reversed.concat(),
        ];
        for base in [kernel, rendered] {
            fixtures.extend([
                base.to_string(),
                base.replace('\n', "\r\n"),
                base.trim_end().to_string(),
                format!("{}\r", base.trim_end()),
                // Repeated (the last wins), out of order, padded keys.
                format!("{base}MemTotal: 5 kB\nCached:\t6\n"),
                format!("SwapFree: 9 kB\n{base}"),
                base.replace("MemFree:", " MemFree \t:"),
                base.replace("Buffers:", "\u{a0}Buffers\u{2003}:"),
                base.replace("Cached:", "\u{b}Cached:"),
                // Near-miss keys must stay unread.
                base.replace("MemTotal:", "MemTotals:"),
                base.replace("MemTotal:", "MemTotal"),
                base.replace("MemFree:", "MemFree::"),
                base.replace("SwapFree:", "Swapfree:"),
                // Values: no unit, doubled unit, signs, overflow, junk.
                base.replace(" kB", ""),
                base.replace(" kB", "kBkB"),
                base.replace(" kB", " kB kB"),
                base.replace(" kB", "\u{a0}kB"),
                base.replace("MemTotal:", "MemTotal: +"),
                base.replace("MemTotal:", "MemTotal: -"),
                base.replace("MemTotal:", "MemTotal: 99999999999999999999"),
                base.replace("MemFree:", "MemFree: 1x"),
                base.replace(':', " :  "),
            ]);
            fixtures.extend((0..base.len()).map(|i| base[..i].to_string()));
        }
        for fx in &fixtures {
            assert_meminfo_agrees(fx);
        }
        assert_eq!(parse_meminfo(&reversed.concat()), parse_meminfo(rendered));
        let parsed = parse_meminfo(&format!("{kernel}MemTotal: 5 kB\n")).unwrap();
        assert_eq!(parsed.mem_total_kib, 5, "the last of a repeated key wins");
        assert!(parsed.mem_available_kib > 0 && parsed.cached_kib > 0);

        let mut next = xorshift(0x3e3_1f0);
        let splices = [
            ":",
            "\t",
            " kB",
            "kB",
            "+",
            "-",
            "\n",
            "\r\n",
            "MemTotal: 7\n",
            "\nCached :\t9 kB\n",
            "\u{a0}",
            "\u{b}",
            "Ω",
            "Swap",
        ];
        for case in 0u32..3000 {
            let mut fx = [kernel, rendered][case as usize % 2].to_string();
            for _ in 0..1 + next() % 4 {
                let at = floor_boundary(&fx, (next() % (fx.len() + 1) as u64) as usize);
                match next() % 4 {
                    0 => fx.truncate(at),
                    1 => fx.insert_str(at, splices[(next() % splices.len() as u64) as usize]),
                    2 => {
                        if let Some(ch) = fx[at..].chars().next() {
                            let g = b" \t:+-0123456789kBM"[(next() % 18) as usize];
                            fx.replace_range(at..at + ch.len_utf8(), &char::from(g).to_string());
                        }
                    }
                    _ => {
                        // Swap two lines: keys out of cursor order.
                        let mut lines: Vec<&str> = fx.split_inclusive('\n').collect();
                        if lines.len() > 1 {
                            let (a, b) =
                                (next() as usize % lines.len(), next() as usize % lines.len());
                            lines.swap(a, b);
                            fx = lines.concat();
                        }
                    }
                }
            }
            assert_meminfo_agrees(&fx);
        }
    }

    #[test]
    fn task_stat_parses_basic() {
        let line = "51334 (miniqmc) R 51000 51334 51334 0 -1 4194304 \
            1234 0 5 0 6394 1248 0 0 20 0 9 0 100 123456789 4321 \
            18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";
        let t = parse_task_stat(line).unwrap();
        assert_eq!(t.tid, 51334);
        assert_eq!(t.comm, "miniqmc");
        assert_eq!(t.state, TaskState::Running);
        assert_eq!(t.minflt, 1234);
        assert_eq!(t.majflt, 5);
        assert_eq!(t.utime, 6394);
        assert_eq!(t.stime, 1248);
        assert_eq!(t.nice, 0);
        assert_eq!(t.num_threads, 9);
        assert_eq!(t.starttime, 100);
        assert_eq!(t.processor, 1);
    }

    #[test]
    fn task_stat_handles_evil_comm() {
        // comm containing spaces and a ')' — the classic procfs trap.
        let line = "7 (evil) name)) S 1 7 7 0 -1 0 \
            0 0 0 0 1 2 0 0 20 0 1 0 0 0 0 \
            18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 3 0 0 0 0 0 0 0 0 0 0 0 0 0";
        let t = parse_task_stat(line).unwrap();
        assert_eq!(t.comm, "evil) name)");
        assert_eq!(t.state, TaskState::Sleeping);
        assert_eq!(t.processor, 3);
    }

    #[test]
    fn task_stat_rejects_garbage() {
        assert!(parse_task_stat("no parens here").is_err());
        assert!(parse_task_stat("1 (x) R 1").is_err()); // too short
    }

    #[test]
    fn stat_parser_matches_oracle_on_fixtures() {
        // Differential over the golden lines, the evil-comm trap,
        // garbage, layout deviations, sign and overflow injections, and
        // every byte-truncation of the golden lines (torn procfs
        // reads): the one parser — as the borrowed view, the owning
        // form and the buffer-reusing `_into` form — must accept exactly
        // what the reference accepts and produce the identical record
        // or the identical error.
        let basic = "51334 (miniqmc) R 51000 51334 51334 0 -1 4194304 \
            1234 0 5 0 6394 1248 0 0 20 0 9 0 100 123456789 4321 \
            18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";
        let evil = "7 (evil) name)) S 1 7 7 0 -1 0 \
            0 0 0 0 1 2 0 0 20 0 1 0 0 0 0 \
            18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 3 0 0 0 0 0 0 0 0 0 0 0 0 0";
        let mut fixtures: Vec<String> = vec![
            basic.to_string(),
            evil.to_string(),
            "no parens here".into(),
            "1 (x) R 1".into(),
            String::new(),
            // The golden capture of a read racing task exit: zero bytes
            // (tests/fixtures/proc_pid_stat_vanished.txt). Identical to
            // the empty string above, but pinned to the on-disk fixture
            // so the capture and the differential can never drift apart.
            include_str!("../../../tests/fixtures/proc_pid_stat_vanished.txt").to_string(),
            // Layouts the kernel does not print: tabs, doubled spaces,
            // a trailing newline, leading padding.
            basic.replace(' ', "\t"),
            basic.replace(") R", ")  R"),
            format!("{basic}\n"),
            format!(" {basic}"),
            // Control byte inside a skipped token: kept in the token
            // unparsed, accepted.
            basic.replace("51000", "51\u{1}000"),
            // Control byte inside a sampled token: rejected.
            basic.replace("123456789", "12\u{3}456789"),
            // Signs: `FromStr` takes a leading `+` on every integer and
            // a `-` only on `nice`, the one signed field.
            basic.replace(" 6394 ", " +6394 "),
            basic.replace(" 6394 ", " -6394 "),
            basic.replace(" 20 0 9 ", " 20 +19 9 "),
            basic.replace(" 20 0 9 ", " 20 -20 9 "),
            basic.replace(" 20 0 9 ", " 20 - 9 "),
            basic.replace("51334 (", "+51334 ("),
            basic.replace("51334 (", "-51334 ("),
            // Overflow: 2^64 in a `u64` field, 2^31 in `nice`, 2^32 in
            // the tid; `u64::MAX` itself fits.
            basic.replace(" 6394 ", " 18446744073709551616 "),
            basic.replace(" 6394 ", " 18446744073709551615 "),
            basic.replace(" 20 0 9 ", " 20 2147483648 9 "),
            basic.replace(" 20 0 9 ", " 20 -2147483648 9 "),
            basic.replace("51334 (", "4294967296 ("),
            // Non-ASCII and unknown state bytes.
            basic.replace(") R ", ") Ω "),
            basic.replace(") R ", ") q "),
            basic.replace(") R ", ") Rx "),
            // `comm` holding `) (`, only `(`, only `)`, nothing.
            basic.replace("(miniqmc)", "(a) (b)"),
            basic.replace("(miniqmc)", "((("),
            basic.replace("(miniqmc)", "()))"),
            basic.replace("(miniqmc)", "()"),
            basic.replace("(miniqmc)", "(Ω-wave)"),
            ") 1 (".into(),
            // One integer reader for every field: a bare sign, a sign
            // doubled or crossed, twenty digits that overflow and
            // twenty-two that do not, an empty tid.
            basic.replace(" 6394 ", " + "),
            basic.replace(" 6394 ", " - "),
            basic.replace(" 6394 ", " +5 "),
            basic.replace(" 6394 ", " ++5 "),
            basic.replace(" 6394 ", " 99999999999999999999 "),
            basic.replace(" 6394 ", " 0000000000000000000005 "),
            basic.replace(" 20 0 9 ", " 20 + 9 "),
            basic.replace(" 20 0 9 ", " 20 +5 9 "),
            basic.replace(" 20 0 9 ", " 20 -0 9 "),
            basic.replace(" 20 0 9 ", " 20 -+5 9 "),
            basic.replace(" 20 0 9 ", " 20 +-5 9 "),
            basic.replace(" 20 0 9 ", " 20 --5 9 "),
            basic.replace(" 20 0 9 ", " 20 99999999999999999999 9 "),
            basic.replace(" 20 0 9 ", " 20 -99999999999999999999 9 "),
            basic.replace("51334 (", "("),
            basic.replace("51334 (", " ("),
            basic.replace("51334 (", "+ ("),
            basic.replace("51334 (", "99999999999999999999 ("),
            basic.replace("51334 (", "\u{a0}51334\u{2003}("),
        ];
        for line in [basic, evil] {
            for i in 0..line.len() {
                fixtures.push(line[..i].to_string());
            }
        }
        for fx in &fixtures {
            assert_stat_agrees(fx);
        }
        // A name is any bytes (`prctl(PR_SET_NAME)`, Latin-1 here, as
        // this kernel printed it): the record carries it lossily, every
        // number beside it unharmed; and bytes that are not UTF-8
        // anywhere else in the line fail as their U+FFFD would.
        let latin1 = LATIN1.0.trim_ascii_end();
        let named = parse_task_stat(latin1).unwrap();
        assert_eq!(named.comm, "c\u{fffd}f\u{fffd}");
        assert_eq!((named.state, named.nice), (TaskState::Running, 0));
        let patch = |from: &[u8], to: &[u8]| patched(latin1, from, to);
        for fx in [
            latin1.to_vec(),
            patch(b") R ", b") \xe9 "),
            patch(b") R ", b") R\xff "),
            patch(b" (c", b"\xa0 (c"),
            patch(b" (c", b"\xc2\xa0\xff (c"),
            patch(b" 0 -1 ", b" 0 -1\xff "),
            patch(b"c\xe9f\xff", b"\xe9)(\xff\xc3"),
            patch(b"c\xe9f\xff", b"\xf0\x9f\x92"),
        ] {
            assert_stat_agrees(&fx);
            for cut in 0..fx.len() {
                assert_stat_agrees(&fx[..cut]);
            }
        }
        // The vectors above really cover both outcomes.
        let parsed = |from: &str, to: &str| parse_task_stat(&basic.replace(from, to));
        assert!(parsed(" ", "\t").is_ok(), "tabs parse");
        assert_eq!(parsed(" 20 0 9 ", " 20 -20 9 ").unwrap().nice, -20);
        assert!(parsed(" 6394 ", " -6394 ").is_err(), "-utime");
        assert_eq!(parsed("(miniqmc)", "(a) (b)").unwrap().comm, "a) (b");
        assert_eq!(parsed(" 6394 ", " +5 ").unwrap().utime, 5);
        assert_eq!(parsed(" 20 0 9 ", " 20 -0 9 ").unwrap().nice, 0);
        assert!(parsed(" 6394 ", " 99999999999999999999 ").is_err());
        assert!(parsed(" 20 0 9 ", " 20 -+5 9 ").is_err(), "nice -+5");
        assert!(parsed("51334 (", "(").is_err(), "empty tid");
    }

    #[test]
    fn stat_parser_matches_oracle_under_seeded_fuzz() {
        // Deterministic differential fuzz of the `stat` parser against
        // the reference: render plausible stat lines, then corrupt them
        // (byte flips, splices, truncations, sign/overflow injections)
        // with an xorshift PRNG. Accept/reject AND the exact error
        // (`what` + `detail`) must agree on every input.
        let mut next = xorshift(0x5eed_2e05);
        let comms = ["miniqmc", "a b", "ev)il", "(((", "Ω-wave", "", ")", "x(y"];
        let glyphs: &[u8] = b" \t()+-0123456789abcR~\xc3\x89";
        for _ in 0u32..4000 {
            let tid = next() % (1 << (next() % 33));
            let comm = comms[(next() % comms.len() as u64) as usize];
            let state = ['R', 'S', 'D', 'Z', 'T', 'q', 'Ω'][(next() % 7) as usize];
            let mut line = format!("{tid} ({comm}) {state} 1 2 3 4 -1 6");
            for field in 10..=(40 - next() % 6) {
                let v = next() % (1 << (next() % 40));
                if field == 19 && next().is_multiple_of(2) {
                    line.push_str(&format!(" -{v}"));
                } else {
                    line.push_str(&format!(" {v}"));
                }
            }
            let mut fuzzed = line.clone();
            for _ in 0..next() % 4 {
                match next() % 5 {
                    0 => {
                        // Flip one byte to a structural glyph at a char
                        // boundary (keep the fixture a valid &str).
                        let at = (next() % fuzzed.len().max(1) as u64) as usize;
                        let at = floor_boundary(&fuzzed, at);
                        if let Some((pos, ch)) =
                            fuzzed[at..].char_indices().next().map(|(p, c)| (at + p, c))
                        {
                            let g = glyphs[(next() % glyphs.len() as u64) as usize];
                            if g.is_ascii() {
                                fuzzed.replace_range(pos..pos + ch.len_utf8(), "");
                                fuzzed.insert(pos, g as char);
                            }
                        }
                    }
                    1 => {
                        let at = (next() % (fuzzed.len() + 1) as u64) as usize;
                        fuzzed.truncate(floor_boundary(&fuzzed, at));
                    }
                    2 => fuzzed.insert_str(0, "  +"),
                    3 => fuzzed.push_str(" 99999999999999999999999999"),
                    _ => {
                        let at = (next() % (fuzzed.len() + 1) as u64) as usize;
                        let at = floor_boundary(&fuzzed, at);
                        fuzzed
                            .insert_str(at, ["(", ")", " -", "+", "\u{a0}"][(next() % 5) as usize]);
                    }
                }
            }
            assert_stat_agrees(&line);
            assert_stat_agrees(&fuzzed);
            assert_stat_agrees(&with_stray_bytes(fuzzed, &mut next));
        }
    }

    #[test]
    fn schedstat_parses() {
        let ss = parse_schedstat("123456789 42000 77\n").unwrap();
        assert_eq!(ss.run_ns, 123456789);
        assert_eq!(ss.wait_ns, 42000);
        assert_eq!(ss.timeslices, 77);
        assert!(parse_schedstat("1 2").is_err());
        assert!(parse_schedstat("a b c").is_err());
    }

    #[test]
    fn schedstat_parser_matches_oracle() {
        // Values the one byte pass must read like `split_ascii_whitespace`
        // + `FromStr` …
        for (text, want) in [
            ("1 2 3", (1, 2, 3)),
            ("  7 \t 8 \n 9  ", (7, 8, 9)),
            ("+1 +2 +3", (1, 2, 3)),
            ("18446744073709551615 0 0", (u64::MAX, 0, 0)),
            ("1 2 3 4 trailing ignored", (1, 2, 3)),
            ("1 2 3 \u{3a9}", (1, 2, 3)),
        ] {
            assert_schedstat_agrees(text);
            let ss = parse_schedstat(text).unwrap();
            assert_eq!((ss.run_ns, ss.wait_ns, ss.timeslices), want, "{text:?}");
        }
        // … and the error it must word the same way.
        for (text, msg) in [
            ("", "missing run_ns"),
            ("1", "missing wait_ns"),
            ("1 2", "missing timeslices"),
            ("x 2 3", "bad run_ns"),
            ("1 x 3", "bad wait_ns"),
            ("1 2 x", "bad timeslices"),
            ("-1 2 3", "bad run_ns"),
            ("18446744073709551616 0 0", "bad run_ns"),
            ("1 2 \u{3a9}", "bad timeslices"),
            ("1\u{b}2 3 4", "bad run_ns"),
        ] {
            assert_schedstat_agrees(text);
            let e = parse_schedstat(text).unwrap_err().to_string();
            assert!(e.contains(msg), "{text:?}: {e}");
        }
        // Seeded fuzz: kernel-shaped triplets, spliced and truncated.
        let mut next = xorshift(0x5c4e_d57a);
        let splices = [
            " ",
            "\t",
            "\n",
            "+",
            "-",
            "x",
            "\u{b}",
            "\u{a0}",
            "99999999999999999999",
        ];
        for _ in 0u32..2000 {
            let mut fx = format!(
                "{} {} {}\n",
                next() % (1 << (next() % 64)),
                next() % (1 << (next() % 50)),
                next() % 1_000_000
            );
            assert_schedstat_agrees(&fx);
            for _ in 0..1 + next() % 3 {
                let at = floor_boundary(&fx, (next() % (fx.len() + 1) as u64) as usize);
                if next().is_multiple_of(3) {
                    fx.truncate(at);
                } else {
                    fx.insert_str(at, splices[(next() % splices.len() as u64) as usize]);
                }
            }
            assert_schedstat_agrees(&fx);
        }
    }

    #[test]
    fn task_status_parses() {
        let text = "\
Name:\tminiqmc
State:\tR (running)
Tgid:\t51334
Pid:\t51384
VmSize:\t  900000 kB
VmHWM:\t  123456 kB
VmRSS:\t  120000 kB
Cpus_allowed:\tfe
Cpus_allowed_list:\t1-7
voluntary_ctxt_switches:\t365742
nonvoluntary_ctxt_switches:\t3
";
        let s = parse_task_status(text).unwrap();
        assert_eq!(s.name, "miniqmc");
        assert_eq!(s.tid, 51384);
        assert_eq!(s.tgid, 51334);
        assert_eq!(s.state, TaskState::Running);
        assert_eq!(s.vm_rss_kib, 120000);
        assert_eq!(s.cpus_allowed.to_list_string(), "1-7");
        assert_eq!(s.voluntary_ctxt_switches, 365742);
        assert_eq!(s.nonvoluntary_ctxt_switches, 3);
    }

    #[test]
    fn task_status_missing_pid_is_error() {
        assert!(parse_task_status("Name: x\n").is_err());
    }

    #[test]
    fn a_cpu_list_past_the_ceiling_is_malformed_not_half_a_gigabyte() {
        let status = |list: &str| format!("Tgid:\t1\nPid:\t1\nCpus_allowed_list:\t{list}\n");
        let max = CpuSet::MAX_LIST_INDEX;
        let mut out = TaskStatus::default();
        // The range and the single index, alone (`single_cpu_range`'s
        // spellings) and after a comma (the list parser's); then one
        // past the ceiling.
        for list in [
            "0-4294967295".to_string(),
            "4294967295".to_string(),
            "0-3,4294967295".to_string(),
            format!("0-{}", max + 1),
            format!("{}", max + 1),
        ] {
            let text = status(&list);
            let e = parse_task_status_into(&text, &mut out).unwrap_err();
            assert_eq!(e.what, "task status", "{list}");
            assert!(e.detail.starts_with("bad cpu list: cpu index"), "{e}");
            assert_status_agrees(&text);
        }
        // The ceiling itself is a cpu like any other.
        for list in [format!("0-{max}"), format!("{max}")] {
            parse_task_status_into(&status(&list), &mut out).unwrap();
            assert_eq!(out.cpus_allowed.last(), Some(max), "{list}");
            assert_status_agrees(&status(&list));
        }
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut rng = seed;
        move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        }
    }

    /// `text` with one to three bytes that are not UTF-8 dropped in.
    fn with_stray_bytes(text: String, next: &mut impl FnMut() -> u64) -> Vec<u8> {
        let mut raw = text.into_bytes();
        for _ in 0..1 + next() % 3 {
            let at = (next() % (raw.len() + 1) as u64) as usize;
            raw.insert(at, b"\xe9\xff\xc3\xa0\x80\xf0"[(next() % 6) as usize]);
        }
        raw
    }

    /// `base` with the first `from` replaced by `to`.
    fn patched(base: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let at = base.windows(from.len()).position(|w| w == from).unwrap();
        [&base[..at], to, &base[at + from.len()..]].concat()
    }

    /// The largest char boundary of `s` at or below `at`.
    fn floor_boundary(s: &str, mut at: usize) -> usize {
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    /// `stat` and `status` of a thread of this kernel named `c\xe9f\xff`
    /// (`printf 'c\xe9f\xff' > /proc/thread-self/comm`).
    const LATIN1: (&[u8], &[u8]) = (
        include_bytes!("../../../tests/fixtures/proc_pid_stat_latin1.txt"),
        include_bytes!("../../../tests/fixtures/proc_pid_status_latin1.txt"),
    );

    /// The ten lines `format::write_task_status` renders.
    const RENDERED: &str = "\
Name:\tworker1
State:\tR (running)
Tgid:\t5
Pid:\t9
VmSize:\t  900000 kB
VmHWM:\t  123456 kB
VmRSS:\t  120000 kB
Cpus_allowed_list:\t1-7
voluntary_ctxt_switches:\t365742
nonvoluntary_ctxt_switches:\t3
";

    /// Captures of the running kernel's 59-line layout: a user task, a
    /// zombie thread-group leader (its `mm` is gone: no `Vm*`, no
    /// `Umask`) and a kernel thread (never had one).
    const KERNEL: [&str; 3] = [
        include_str!("../../../tests/fixtures/proc_pid_status.txt"),
        include_str!("../../../tests/fixtures/proc_pid_status_zombie_leader.txt"),
        include_str!("../../../tests/fixtures/proc_pid_status_kthread.txt"),
    ];

    #[test]
    fn status_scanner_reads_the_kernel_fixtures() {
        let user = parse_task_status(KERNEL[0]).unwrap();
        assert_eq!((user.tid, user.tgid), (15253, 15253));
        assert_eq!((user.vm_size_kib, user.vm_hwm_kib), (3624, 1840));
        let zombie = parse_task_status(KERNEL[1]).unwrap();
        assert_eq!(zombie.state, TaskState::Zombie);
        assert_eq!(zombie.name, "zl");
        assert_eq!((zombie.vm_size_kib, zombie.vm_rss_kib), (0, 0));
        assert_eq!(zombie.cpus_allowed.to_list_string(), "0-1");
        assert_eq!(zombie.voluntary_ctxt_switches, 4);
        let kthread = parse_task_status(KERNEL[2]).unwrap();
        assert_eq!((kthread.tid, kthread.name.as_str()), (2, "kthreadd"));
        assert_eq!(kthread.vm_rss_kib, 0);
        assert_eq!(kthread.voluntary_ctxt_switches, 131);
    }

    #[test]
    fn status_keys_are_in_cursor_order_and_pass_the_line_filter() {
        for (i, (text, key)) in STATUS_ORDER.into_iter().enumerate() {
            assert_eq!(key as usize, i, "cursor order");
            assert!(may_be_status_key(text), "{:?}", std::str::from_utf8(text));
        }
        assert!(!may_be_status_key(b"VmPeak:\t1 kB"));
        assert!(!may_be_status_key(b"Pi"));
    }

    #[test]
    fn status_scanner_matches_oracle_on_fixtures() {
        let user = KERNEL[0];
        let mut fixtures: Vec<String> = KERNEL.iter().map(|t| t.to_string()).collect();
        for base in [user, RENDERED] {
            fixtures.extend([
                base.replace('\n', "\r\n"),
                base.trim_end().to_string(),
                format!("{}\r", base.trim_end()),
                format!("{base}  \n"),
                // Non-ASCII and Unicode-padded names.
                base.replace("Name:\t", "Name:\tΩ-wave "),
                base.replace("Name:\t", "Name:\u{a0}\u{3000}é\u{2003}"),
                base.replace("Name:\t", "Name:\t\u{b}x\u{b}"),
                // Keys the cursor does not predict: repeated, out of
                // order, padded with ASCII and Unicode space.
                format!("{base}VmRSS:\t5 kB\n"),
                format!("{base}Name:\tlate\nPid:\tx\n"),
                format!("Pid:\t1\n{base}"),
                format!("nonvoluntary_ctxt_switches:\t8\n{base}"),
                base.replace("Pid:", "Pid \t:"),
                base.replace("Pid:", " Pid:"),
                base.replace("Pid:", "\u{a0}Pid\u{2003}:"),
                base.replace("Tgid:", "\u{b}Tgid:"),
                base.replace("VmRSS:", "VmRSS :"),
                // Near-miss keys must stay unread.
                base.replace("Pid:", "Pie:"),
                base.replace("Pid:", "Pid"),
                base.replace("Pid:", "Pid::"),
                base.replace("VmRSS:", "VmRSSx:"),
                base.replace("Name:", "Names:"),
                base.replace("State:", "Sta:"),
                // Values whose errors and fallbacks the oracle defines.
                base.replace("R (running)", "q (?)"),
                base.replace("R (running)", "Ωmega"),
                base.replace("R (running)", "P (parked)"),
                base.replace("R (running)", ""),
                base.replace("Cpus_allowed_list:\t", "Cpus_allowed_list:\t7-1,"),
                base.replace("Cpus_allowed_list:\t", "Cpus_allowed_list:\t\u{a0}"),
                base.replace(" kB", "kBkB"),
                base.replace(" kB", " kB kB"),
                base.replace(" kB", "\u{a0}kB"),
                base.replace("Tgid:\t", "Tgid:\t+"),
                base.replace("Tgid:\t", "Tgid:\t-"),
                base.replace("Tgid:\t", "Tgid:\t99999999999999999999"),
                base.replace("Tgid:\t", "Tgid:\t4294967296 "),
                base.replace("voluntary_ctxt_switches:\t", "voluntary_ctxt_switches:\t1x"),
                base.replace(":\t", " :  "),
            ]);
        }
        fixtures.extend(["no colons at all\n".into(), String::new(), "\n\n:\n".into()]);
        for fx in &fixtures {
            assert_status_agrees(fx);
        }
        // The Latin-1 thread name again, as `status` carries it.
        let latin1 = LATIN1.1;
        let named = parse_task_status(latin1).unwrap();
        assert_eq!(named.name, "c\u{fffd}f\u{fffd}");
        assert!(named.vm_rss_kib > 0 && !named.cpus_allowed.is_empty());
        let patch = |from: &[u8], to: &[u8]| patched(latin1, from, to);
        for fx in [
            latin1.to_vec(),
            // Unicode space around a name that is not UTF-8: trimmed
            // as text, after decoding.
            patch(b"Name:\tc", b"Name:\t\xc2\xa0 c"),
            patch(b"f\xff\n", b"f\xff\xe2\x80\x83 \n"),
            patch(b"c\xe9f\xff", b"\xff"),
            patch(b"c\xe9f\xff", b"\xc2"),
            patch(b"Name:", b"Name\xff:"),
            patch(b"Name:", b"\xffName:"),
            patch(b"State:\t", b"State:\t\xe9"),
            patch(b"Pid:\t", b"Pid:\t\xff"),
            patch(b"VmRSS:\t", b"VmRSS:\t\xff"),
            patch(b"Cpus_allowed_list:\t", b"Cpus_allowed_list:\t\xff,"),
            patch(b"Umask:", b"Um\xffsk:"),
        ] {
            assert_status_agrees(&fx);
        }
        for cut in 0..latin1.len() {
            assert_status_agrees(&latin1[..cut]);
        }
        for base in [user, RENDERED] {
            for i in 0..base.len() {
                assert_status_agrees(&base[..i]);
            }
        }
    }

    /// One kernel-shaped `status` text: 40–60 tab-separated lines in
    /// the kernel's order, ZeroSum's keys among them, `Vm*` values
    /// right-aligned to eight columns before ` kB`.
    fn kernel_shaped_status(next: &mut impl FnMut() -> u64) -> String {
        const FILLER: [&str; 14] = [
            "Umask:\t0022",
            "Ngid:\t0",
            "PPid:\t15227",
            "TracerPid:\t0",
            "Uid:\t0\t0\t0\t0",
            "Groups:\t ",
            "NStgid:\t15253",
            "NSpid:\t15253",
            "Kthread:\t0",
            "VmPeak:\t    3624 kB",
            "VmStk:\t     132 kB",
            "VmSwap:\t       0 kB",
            "Cpus_allowed:\tffff",
            "SigQ:\t0/515561",
        ];
        let state =
            ["R (running)", "S (sleeping)", "Z (zombie)", "I (idle)"][(next() % 4) as usize];
        let kib = |v: u64| format!("{:>8} kB", v % (1 << (v % 34)));
        let keyed = [
            format!(
                "Name:\t{}",
                ["cp", "miniqmc", "a b", "Ω", ""][(next() % 5) as usize]
            ),
            format!("State:\t{state}"),
            format!("Tgid:\t{}", next() % 4_194_304),
            format!("Pid:\t{}", next() % 4_194_304),
            format!("VmSize:\t{}", kib(next())),
            format!("VmHWM:\t{}", kib(next())),
            format!("VmRSS:\t{}", kib(next())),
            format!("Cpus_allowed_list:\t{}-{}", next() % 4, 4 + next() % 252),
            format!("voluntary_ctxt_switches:\t{}", next() % 1_000_000),
            format!("nonvoluntary_ctxt_switches:\t{}", next() % 1_000),
        ];
        let lines = 40 + (next() % 21) as usize;
        let mut text = String::new();
        for (i, line) in keyed.iter().enumerate() {
            // A mask line as wide as the kernel's `Mems_allowed`.
            if i == 8 {
                text.push_str("Mems_allowed:\t");
                text.push_str(&"00000000,".repeat(31));
                text.push_str("00000001\n");
            }
            for _ in 0..(lines - 11) / 10 + usize::from(i < (lines - 11) % 10) {
                text.push_str(FILLER[(next() % FILLER.len() as u64) as usize]);
                text.push('\n');
            }
            text.push_str(line);
            text.push('\n');
        }
        text
    }

    #[test]
    fn status_scanner_matches_oracle_under_seeded_fuzz() {
        let mut next = xorshift(0x57a7_05f2);
        let splices = [
            ":",
            "\t",
            " kB",
            "kB",
            "+",
            "-",
            "\n",
            "\r\n",
            "Pid:\t7\n",
            "State:\tZ\n",
            "\nVmRSS :\t9 kB\n",
            "\u{a0}",
            "\u{b}",
            "Ω",
            "0-9999",
            ",",
        ];
        for case in 0u32..4000 {
            let mut fx = if case % 2 == 0 {
                kernel_shaped_status(&mut next)
            } else {
                RENDERED.to_string()
            };
            assert_eq!(
                case % 2 == 0,
                (40..=60).contains(&fx.lines().count()),
                "{fx}"
            );
            assert_status_agrees(&fx);
            for _ in 0..1 + next() % 4 {
                let at = floor_boundary(&fx, (next() % (fx.len() + 1) as u64) as usize);
                match next() % 5 {
                    0 => fx.truncate(at),
                    1 => fx.insert_str(at, splices[(next() % splices.len() as u64) as usize]),
                    2 => {
                        if let Some(ch) = fx[at..].chars().next() {
                            let g = b" \t:+-0123456789kBR"[(next() % 18) as usize];
                            fx.replace_range(at..at + ch.len_utf8(), &char::from(g).to_string());
                        }
                    }
                    3 => {
                        // Swap two lines: keys out of cursor order.
                        let mut lines: Vec<&str> = fx.split_inclusive('\n').collect();
                        if lines.len() > 1 {
                            let (a, b) =
                                (next() as usize % lines.len(), next() as usize % lines.len());
                            lines.swap(a, b);
                            fx = lines.concat();
                        }
                    }
                    _ => {
                        let digits = format!("{}", next() % (1 << (next() % 40)));
                        fx.push_str("VmRSS:\t");
                        fx.push_str(&digits);
                        fx.push_str(" kB\n");
                    }
                }
            }
            assert_status_agrees(&fx);
            assert_status_agrees(&with_stray_bytes(fx, &mut next));
        }
    }

    /// `/proc/stat` as the kernel prints it for `cpus` CPUs: doubled
    /// space after the aggregate key, ten columns, an `intr` line of
    /// `intr_fields` counters, the `softirq` tail.
    fn kernel_shaped_stat(cpus: u32, intr_fields: usize, next: &mut impl FnMut() -> u64) -> String {
        let mut row = |key: String| {
            let mut line = key;
            for col in 0..10 {
                line.push_str(&format!(" {}", next() % (1 << (4 + 5 * (col % 7)))));
            }
            line + "\n"
        };
        let mut text = row("cpu ".into());
        for i in 0..cpus {
            text.push_str(&row(format!("cpu{i}")));
        }
        text.push_str("intr 4123456");
        text.push_str(&" 0".repeat(intr_fields));
        text.push_str("\nctxt 987654\nbtime 1700000000\nprocesses 4242\n");
        text.push_str("procs_running 2\nprocs_blocked 0\nsoftirq 9 1 2 3 4 5 6 7 8 9 10\n");
        text
    }

    #[test]
    fn system_stat_scanner_matches_oracle_on_fixtures() {
        let mut next = xorshift(0x57a7_0001);
        let golden = include_str!("../../../tests/fixtures/proc_stat.txt");
        let mut fixtures: Vec<String> = vec![
            golden.to_string(),
            golden.replace('\n', "\r\n"),
            golden.replace(' ', "\t"),
            STAT.to_string(),
            String::new(),
            "\n \n".into(),
            // Short rows: four columns is the oldest layout, three is an error.
            "cpu 1 2 3 4\ncpu0 1 2 3 4\n".into(),
            "cpu 1 2 3 4 5\ncpu0 1 2 3\n".into(),
            "cpu 1 2 3\n".into(),
            "cpu0 1 2 3 4\n".into(),
            // Rows out of order and repeated: the sort is stable.
            "cpu 1 2 3 4\ncpu3 3 0 0 0\ncpu1 1 0 0 0\ncpu3 4 0 0 0\ncpu0 0 0 0 0\n".into(),
            "cpu 1 2 3 4\ncpu 5 6 7 8\n".into(),
            "cpu 1 2 3 4\ncpux 1 2 3 4\n".into(),
            "cpu 1 2 3 4\ncpu+1 1 2 3 4\ncpu01 1 2 3 4\n".into(),
            "cpu 1 2 3 4\ncpu4294967296 1 2 3 4\n".into(),
            "cpu 1 2 3 4\ncpuΩ 1 2 3 4\n".into(),
            "cpu 1 2 3 4\ncpufreq 1\n".into(),
            "cpu 1 2 x 4\n".into(),
            "cpu 1 2 3 4 5 6 7 -8\n".into(),
            "cpu 1 2 3 4 5 6 7 8 garbage ignored\n".into(),
            "cpu 18446744073709551615 18446744073709551616 3 4\n".into(),
            "cpu 00000000000000000000018446744073709551615 2 3 4\n".into(),
            "cpu 1 2 3 4\nctxt\n".into(),
            "cpu 1 2 3 4\nctxt x\n".into(),
            "cpu 1 2 3 4\nctxt 5 6\nctxt 7\nprocesses +9\n".into(),
            "cpu 1 2 3 4\nprocesses\n".into(),
            "cpu 1 2 3 4\n\u{b}ctxt 5\n\u{a0}ctxt 6\n".into(),
            "  cpu  1\t2 \x0c3 4  \n".into(),
        ];
        for cpus in [1, 2, 7, 64, 128, 512] {
            fixtures.push(kernel_shaped_stat(cpus, 600 + cpus as usize * 8, &mut next));
        }
        assert!(fixtures.last().is_some_and(|t| t.len() > 8 * 1024));
        for fx in &fixtures {
            assert_system_stat_agrees(fx);
        }
        for i in 0..golden.len() {
            assert_system_stat_agrees(&golden[..i]);
        }
    }

    #[test]
    fn system_stat_scanner_matches_oracle_under_seeded_fuzz() {
        let mut next = xorshift(0x57a7_0002);
        let splices = [
            " ",
            "\t",
            "\n",
            "\r\n",
            "+",
            "-",
            "x",
            "cpu",
            "cpu9 1 2 3 4\n",
            "Ω",
            "\u{b}",
        ];
        for _ in 0u32..1500 {
            let cpus = 1 + (next() % 512) as u32 % (1 << (next() % 10));
            let mut fx = kernel_shaped_stat(cpus, (next() % 300) as usize, &mut next);
            assert_system_stat_agrees(&fx);
            for _ in 0..1 + next() % 4 {
                let at = floor_boundary(&fx, (next() % (fx.len() + 1) as u64) as usize);
                match next() % 3 {
                    0 => fx.truncate(at),
                    1 => fx.insert_str(at, splices[(next() % splices.len() as u64) as usize]),
                    _ => {
                        if let Some(ch) = fx[at..].chars().next() {
                            let g = b" \t\n+-0123456789cpu"[(next() % 18) as usize];
                            fx.replace_range(at..at + ch.len_utf8(), &char::from(g).to_string());
                        }
                    }
                }
            }
            assert_system_stat_agrees(&fx);
        }
    }

    #[test]
    fn line_end_finds_the_first_newline_at_every_offset() {
        // Every position of the newline against every alignment of the
        // eight-byte step, with bytes around it that differ from `\n`
        // in one bit or borrow into it (0x0b, 0x0a ^ 0x80, 0x00, 0xff).
        for len in 0..40usize {
            for at in 0..=len {
                for fill in [b'x', 0x0b, 0x8a, 0x00, 0xff, 0x09] {
                    let mut text = vec![fill; len];
                    if let Some(slot) = text.get_mut(at) {
                        *slot = b'\n';
                    }
                    if let Some(slot) = text.get_mut(at + 3) {
                        *slot = b'\n';
                    }
                    assert_eq!(line_end(&text), at.min(len), "{text:?}");
                }
            }
        }
    }
}
