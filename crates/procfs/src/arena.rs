//! Raw-text reads: the sampling round's record arena.
//!
//! The sampling round reads a task's records into its
//! [`ReadArena`] — a reusable byte buffer that records land in
//! back-to-back, addressed by [`ArenaSpan`]s — parses each span in
//! place with the view parsers, and resets the arena before the next
//! task. Records are kept as the bytes the kernel printed: a thread
//! name (`comm`, `Name:`) is whatever `prctl(PR_SET_NAME)` was given,
//! not always UTF-8, and the parsers decode that one text themselves.
//! Compared to the one-record typed `_into` reads, the arena read:
//!
//! * performs **one `pread` syscall per file** on the live backend (a
//!   `read_to_string` loop costs at least two: one for the bytes, one
//!   to observe EOF — see `read_record`, which every `LinuxProc` read
//!   shares);
//! * lets the simulated backend render records **into the arena** (its
//!   one render scratch, copied to the tail), skipping the source's
//!   per-read scratch round-trip;
//! * keeps the parse step out of the source entirely: the round parses
//!   the span straight into the record pair it folds from.
//!
//! The arena never shrinks: after the first few reads every append
//! lands in memory the arena already owns, and `reset` is a length
//! store. One arena serves one monitor — there is no sharing and
//! therefore no locking.

use crate::types::{TaskStat, TaskStatus};
use std::fs::File;
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;

/// The half-open byte range of one record inside a [`ReadArena`].
///
/// Spans are only meaningful against the arena that produced them, and
/// only until its next [`ReadArena::reset`]; [`ReadArena::get`] returns
/// `None` (never panics) if a stale or foreign span is presented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaSpan {
    start: usize,
    end: usize,
}

impl ArenaSpan {
    /// Length of the record in bytes.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Chunk granularity for [`ReadArena::append_file`]. Every `/proc`
/// record ZeroSum samples (a `stat` line, a `status` block, a
/// `schedstat` triplet) fits in one chunk on real kernels, so the
/// common case is exactly one `read` syscall.
const READ_CHUNK: usize = 4096;

/// The one read primitive for live `/proc` text: reads `file` whole,
/// from offset 0, into `staging` and returns the record borrowed from
/// there. The handle may be fresh or held since an earlier round —
/// a `pread` at 0 makes procfs generate the record anew either way. One
/// syscall in the common case — `staging` offers [`READ_CHUNK`] bytes
/// and a short read from procfs means the record is complete (only a
/// read that fills the chunk exactly forces another call), where a
/// `read_to_string` pays `statx` + `lseek` + a second `read` to observe
/// EOF. A signal landing mid-read (`EINTR`) is retried, not surfaced as
/// a sampling error.
pub(crate) fn read_record<'a>(file: &File, staging: &'a mut Vec<u8>) -> std::io::Result<&'a [u8]> {
    let filled = read_whole(|dst, at| file.read_at(dst, at), staging)?;
    Ok(staging.get(..filled).unwrap_or(&[]))
}

/// The read loop of [`read_record`], over any positioned read so a test
/// can script short reads and `EINTR`. Returns the bytes filled.
fn read_whole(
    mut fetch: impl FnMut(&mut [u8], u64) -> std::io::Result<usize>,
    staging: &mut Vec<u8>,
) -> std::io::Result<usize> {
    let mut filled = 0usize;
    loop {
        staging.resize(filled + READ_CHUNK, 0);
        let Some(dst) = staging.get_mut(filled..) else {
            break; // unreachable: resize just extended past `filled`
        };
        let n = match fetch(dst, filled as u64) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        filled += n;
        if n < READ_CHUNK {
            break; // short read: procfs records are generated whole
        }
    }
    Ok(filled)
}

/// Appends `record` to the arena storage `text`; its span.
fn push_record(text: &mut Vec<u8>, record: &[u8]) -> ArenaSpan {
    let start = text.len();
    text.extend_from_slice(record);
    ArenaSpan {
        start,
        end: text.len(),
    }
}

/// A reusable arena batching many raw `/proc` records.
///
/// Obtain spans via [`ProcSource::task_stat_text`] /
/// [`ProcSource::task_status_text`] (or the lower-level `append_*`
/// methods), then resolve them with [`ReadArena::get`]. Call
/// [`ReadArena::reset`] once the spans are parsed to recycle the memory.
///
/// [`ProcSource::task_stat_text`]: crate::source::ProcSource::task_stat_text
/// [`ProcSource::task_status_text`]: crate::source::ProcSource::task_status_text
#[derive(Debug, Default)]
pub struct ReadArena {
    /// The record storage; spans index into this.
    text: Vec<u8>,
    /// I/O staging for [`ReadArena::append_file`].
    bytes: Vec<u8>,
    /// Where [`ReadArena::try_append_with`] lets its caller render.
    render: String,
    /// Scratch record for the default (typed-read-then-render) fallback
    /// of [`ProcSource::task_stat_text`].
    ///
    /// [`ProcSource::task_stat_text`]: crate::source::ProcSource::task_stat_text
    pub(crate) stat_scratch: TaskStat,
    /// Scratch record for the default fallback of
    /// [`ProcSource::task_status_text`].
    ///
    /// [`ProcSource::task_status_text`]: crate::source::ProcSource::task_status_text
    pub(crate) status_scratch: TaskStatus,
}

impl ReadArena {
    /// An empty arena (allocates nothing until the first append).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all spans and recycles the storage; capacity is kept.
    pub fn reset(&mut self) {
        self.text.clear();
    }

    /// Total bytes currently stored.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the arena holds no records.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Resolves a span to its record. `None` for spans that do not lie
    /// within the current contents (e.g. issued before the last
    /// [`ReadArena::reset`]).
    pub fn get(&self, span: ArenaSpan) -> Option<&[u8]> {
        self.text.get(span.start..span.end)
    }

    /// Appends a record verbatim.
    pub fn append_str(&mut self, record: &str) -> ArenaSpan {
        push_record(&mut self.text, record.as_bytes())
    }

    /// Appends whatever `fill` renders, returning its span. On `Err`
    /// nothing is appended — a failed render never leaks bytes into the
    /// batch.
    pub fn try_append_with<E>(
        &mut self,
        fill: impl FnOnce(&mut String) -> Result<(), E>,
    ) -> Result<ArenaSpan, E> {
        self.render.clear();
        fill(&mut self.render)?;
        Ok(push_record(&mut self.text, self.render.as_bytes()))
    }

    /// Reads a whole file into the arena through `read_record` (a
    /// single `pread` syscall in the common case). With `trim_end` the
    /// trailing whitespace/newline is dropped from the span — the shape
    /// `stat`-line consumers want.
    pub fn append_file(&mut self, file: &File, trim_end: bool) -> std::io::Result<ArenaSpan> {
        let record = read_record(file, &mut self.bytes)?;
        let record = if trim_end {
            record.trim_ascii_end()
        } else {
            record
        };
        Ok(push_record(&mut self.text, record))
    }

    /// Renders the internal stat scratch to the arena tail (the typed
    /// fallback path of `task_stat_text`).
    pub(crate) fn render_stat_scratch(&mut self) -> ArenaSpan {
        self.render.clear();
        crate::format::write_task_stat(&self.stat_scratch, &mut self.render);
        push_record(&mut self.text, self.render.as_bytes())
    }

    /// Renders the internal status scratch to the arena tail (the typed
    /// fallback path of `task_status_text`).
    pub(crate) fn render_status_scratch(&mut self) -> ArenaSpan {
        self.render.clear();
        crate::format::write_task_status(&self.status_scratch, &mut self.render);
        push_record(&mut self.text, self.render.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_address_their_records() {
        let mut a = ReadArena::new();
        let s1 = a.append_str("first");
        let s2 = a.append_str("second record");
        assert_eq!(a.get(s1), Some(&b"first"[..]));
        assert_eq!(a.get(s2), Some(&b"second record"[..]));
        assert_eq!(s2.len(), 13);
        assert!(!s2.is_empty());
        let stale = s2;
        a.reset();
        assert!(a.is_empty());
        assert_eq!(a.get(stale), None, "stale span resolves to None");
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut a = ReadArena::new();
        a.append_str(&"x".repeat(1000));
        let cap = a.text.capacity();
        a.reset();
        a.append_str("y");
        assert_eq!(a.text.capacity(), cap);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn failed_render_rolls_back() {
        let mut a = ReadArena::new();
        a.append_str("keep");
        let r: Result<ArenaSpan, &str> = a.try_append_with(|t| {
            t.push_str("partial garbage");
            Err("render failed")
        });
        assert_eq!(r, Err("render failed"));
        assert_eq!(a.len(), 4, "partial write rolled back");
        let ok = a.try_append_with::<()>(|t| {
            t.push_str("good");
            Ok(())
        });
        assert_eq!(a.get(ok.unwrap()), Some(&b"good"[..]));
    }

    #[test]
    fn read_loop_retries_eintr_and_stops_at_the_first_short_read() {
        // Serves `data` in full chunks from the offset asked for,
        // failing with `EINTR` before every successful read.
        let data = vec![b'q'; READ_CHUNK + 9];
        let (mut interrupt_next, mut reads) = (false, 0u32);
        let mut staging = Vec::new();
        let filled = read_whole(
            |dst, at| {
                interrupt_next = !interrupt_next;
                if interrupt_next {
                    return Err(ErrorKind::Interrupted.into());
                }
                reads += 1;
                let rest = &data[at as usize..];
                let n = dst.len().min(rest.len());
                dst[..n].copy_from_slice(&rest[..n]);
                Ok(n)
            },
            &mut staging,
        )
        .unwrap();
        assert_eq!(&staging[..filled], &data[..]);
        assert_eq!(reads, 2, "a full chunk, then the short read ends it");
    }

    #[test]
    fn append_file_reads_and_trims() {
        let dir = std::env::temp_dir().join(format!("zs-arena-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("stat");
        std::fs::write(&p, "1 (x) R 0 0\n").unwrap();
        let f = File::open(&p).unwrap();
        let mut a = ReadArena::new();
        let trimmed = a.append_file(&f, true).unwrap();
        assert_eq!(a.get(trimmed), Some(&b"1 (x) R 0 0"[..]));
        // The same handle again: every read starts at offset 0.
        let raw = a.append_file(&f, false).unwrap();
        assert_eq!(a.get(raw), Some(&b"1 (x) R 0 0\n"[..]));
        // Larger than one chunk: the multi-read path still returns
        // everything.
        let big = "z".repeat(3 * super::READ_CHUNK + 17);
        std::fs::write(&p, &big).unwrap();
        let span = a.append_file(&File::open(&p).unwrap(), false).unwrap();
        assert_eq!(a.get(span), Some(big.as_bytes()));
        // Not UTF-8 (a Latin-1 thread name): the record all the same.
        std::fs::write(&p, b"1 (caf\xe9) R\n").unwrap();
        let span = a.append_file(&File::open(&p).unwrap(), true).unwrap();
        assert_eq!(a.get(span), Some(&b"1 (caf\xe9) R"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
