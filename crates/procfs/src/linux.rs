//! The live-Linux [`ProcSource`] backend.
//!
//! Reads a real `/proc` mount using only `std` — no libc, no root, no
//! daemons; exactly the user-space access model the paper argues for. The
//! root directory is configurable so tests can point it at a fixture tree.
//!
//! Every file is read through one path, `LinuxProc::read_with`: a
//! handle held since an earlier round if there is one, else `open`, then
//! `arena::read_record` — and the handle is kept for the next round
//! while the descriptor budget fixed at construction allows (DESIGN §8,
//! "Read").

use crate::arena::read_record;
use crate::parse;
use crate::source::{ProcSource, SourceError, SourceResult};
use crate::types::{MemInfo, Pid, SchedStat, SystemStat, TaskStat, TaskStatus, Tid};
use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::ErrorKind;
use std::os::fd::AsRawFd;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

/// `errno` values std has no [`ErrorKind`] for. A `read` on a procfs
/// handle whose task is gone — or whose tid belongs to a new task —
/// answers `ESRCH`; `EMFILE`/`ENFILE` are the two ways `open` reports
/// descriptor exhaustion.
const ESRCH: i32 = 3;
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;

/// The descriptor number [`LinuxProc::new`] reaches once while the
/// process is still single-threaded: the kernel sizes the fd table for
/// the highest number in use, so holding fd 256 for an instant leaves a
/// 512-slot table behind (DESIGN §8's dead-ends table and CHANGES.md
/// PR 16 have the measurement).
const RESERVE_TOP_FD: i32 = 256;
/// Slots of the table the cache never takes: the application's own
/// future descriptors plus the monitor's transient ones (a task
/// listing, an un-retained read, the log files at exit).
const FD_HEADROOM: usize = 16;

/// Maps a filesystem error on a procfs read to the source taxonomy:
/// vanished records are [`SourceError::NotFound`] — a missing path, or
/// `ESRCH` from a handle opened before the task exited — permission
/// failures are [`SourceError::Denied`] (so callers can skip-with-count
/// instead of aborting a scan), everything else is [`SourceError::Io`].
fn classify_read_error(e: &std::io::Error, context: impl std::fmt::Display) -> SourceError {
    match e.kind() {
        ErrorKind::NotFound => SourceError::NotFound,
        _ if e.raw_os_error() == Some(ESRCH) => SourceError::NotFound,
        ErrorKind::PermissionDenied => SourceError::Denied(context.to_string()),
        _ => SourceError::Io(context.to_string()),
    }
}

/// The per-task files, in the order a round reads them; the value
/// indexes [`TaskHandles::files`].
const SCHEDSTAT: usize = 0;
const STAT: usize = 1;
const STATUS: usize = 2;
const LEAVES: [&str; 3] = ["schedstat", "stat", "status"];

/// One file under the root.
#[derive(Debug, Clone, Copy)]
enum ProcFile {
    SystemStat,
    Meminfo,
    /// `self/status`: names whoever opens it, so never held.
    SelfStatus,
    Task(Pid, Tid, usize),
}

#[derive(Debug)]
struct TaskHandles {
    tid: Tid,
    files: [Option<File>; 3],
}

/// What `/proc/stat` last said of thread births, and which read of it
/// that was. `processes` moves by one for every task created anywhere
/// on the node, so two reads that agree bracket a span without births.
#[derive(Debug, Default, Clone, Copy)]
struct ForkClock {
    /// The `processes` line; 0 while no read has carried one.
    processes: u64,
    /// Successful `/proc/stat` reads through this source so far.
    reads: u64,
}

#[derive(Debug)]
struct PidHandles {
    pid: Pid,
    /// Ascending by tid; brought in line with every listing of `pid`.
    tasks: Vec<TaskHandles>,
    /// `processes` as it stood when `tasks` was listed, and the read
    /// that was current at the last `list_tasks_into(pid)`, reused or
    /// not: one `/proc/stat` read vouches for one answer.
    listed: ForkClock,
}

impl PidHandles {
    /// Whether `now` proves no task was born, on the whole node, since
    /// before `tasks` was listed: a newer read, the same non-zero count.
    fn no_births_by(&self, now: ForkClock) -> bool {
        now.reads > self.listed.reads
            && now.processes != 0
            && now.processes == self.listed.processes
    }
}

/// The open handles of a [`LinuxProc`] and their accounting. A handle
/// lives in a slot; task slots exist for exactly the tids of a pid's
/// last listing, so a read of a task never listed is not retained and
/// a departed task's handles go with the next listing.
#[derive(Debug, Default)]
struct HandleCache {
    /// `/proc/stat`, `/proc/meminfo`.
    node: [Option<File>; 2],
    pids: Vec<PidHandles>,
    /// Where the last task lookup landed (`pids` index, `tasks` index):
    /// a round asks for one task's three files, then its neighbour's.
    at: (usize, usize),
    held: usize,
    /// Most handles to hold; fixed at construction, 0 after `EMFILE`.
    budget: usize,
    opens: u64,
    listings: u64,
    reopens: u64,
    refused: u64,
    drops: u64,
}

impl HandleCache {
    /// Where `file`'s handle is kept, if it has such a place.
    fn slot(&mut self, file: ProcFile) -> Option<&mut Option<File>> {
        let (pid, tid, leaf) = match file {
            ProcFile::SystemStat => return self.node.get_mut(0),
            ProcFile::Meminfo => return self.node.get_mut(1),
            ProcFile::SelfStatus => return None,
            ProcFile::Task(pid, tid, leaf) => (pid, tid, leaf),
        };
        let (pi, ti) = self.at;
        let pi = match self.pids.get(pi) {
            Some(p) if p.pid == pid => pi,
            _ => self.pids.iter().position(|p| p.pid == pid)?,
        };
        let tasks = &mut self.pids.get_mut(pi)?.tasks;
        let ti = [ti, ti + 1]
            .into_iter()
            .find(|&i| tasks.get(i).is_some_and(|t| t.tid == tid))
            .or_else(|| tasks.binary_search_by_key(&tid, |t| t.tid).ok())?;
        self.at = (pi, ti);
        tasks.get_mut(ti)?.files.get_mut(leaf)
    }

    /// Drops the handle in `file`'s slot.
    fn release(&mut self, file: ProcFile) {
        if self.slot(file).and_then(Option::take).is_some() {
            self.held -= 1;
        }
    }

    /// Keeps `handle` in `file`'s slot if there is one and the budget
    /// has room; otherwise the handle closes here, as it always used to.
    fn keep(&mut self, file: ProcFile, handle: File) {
        let room = self.held < self.budget;
        match self.slot(file) {
            Some(slot) if room => {
                *slot = Some(handle);
                self.held += 1;
            }
            Some(_) => self.refused += 1,
            None => {}
        }
    }

    /// Gives `pid` a slot set for exactly the tids of its (ascending)
    /// listing, made under `now`: handles of departed tids close, new
    /// tids get empty slots. A steady population costs one comparison
    /// per task.
    fn sweep(&mut self, pid: Pid, listing: &[Tid], now: ForkClock) {
        if self.budget == 0 {
            return;
        }
        let known = self.pids.iter().position(|p| p.pid == pid);
        let pi = known.unwrap_or(self.pids.len());
        if known.is_none() {
            let (tasks, listed) = (Vec::with_capacity(listing.len()), now);
            self.pids.push(PidHandles { pid, tasks, listed });
        }
        let Some(p) = self.pids.get_mut(pi) else {
            return;
        };
        p.listed = now;
        let tasks = &mut p.tasks;
        if tasks.iter().map(|t| t.tid).eq(listing.iter().copied()) {
            return;
        }
        let mut closed = 0;
        tasks.retain(|t| {
            let stays = listing.binary_search(&t.tid).is_ok();
            if !stays {
                closed += t.files.iter().flatten().count();
            }
            stays
        });
        let stayed = tasks.len();
        for &tid in listing {
            let old = tasks.get(..stayed).unwrap_or(&[]);
            if old.binary_search_by_key(&tid, |t| t.tid).is_err() {
                let files = [None, None, None];
                tasks.push(TaskHandles { tid, files });
            }
        }
        tasks.sort_unstable_by_key(|t| t.tid);
        self.held -= closed;
    }

    /// Forgets `pid` (its listing came back `NotFound`).
    fn purge(&mut self, pid: Pid) {
        self.pids.retain(|p| {
            if p.pid == pid {
                let files = p.tasks.iter().flat_map(|t| &t.files);
                self.held -= files.flatten().count();
            }
            p.pid != pid
        });
    }

    /// Runs `attempt`, an `open`. On descriptor exhaustion closes every
    /// handle and stops retaining — whatever the cause, the monitor is
    /// back to one transient descriptor at a time — and runs it once
    /// more.
    fn open_with<T>(&mut self, attempt: impl Fn() -> std::io::Result<T>) -> std::io::Result<T> {
        attempt().or_else(|e| {
            if !matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) {
                return Err(e);
            }
            self.node = [None, None];
            self.pids.clear();
            (self.held, self.budget) = (0, 0);
            self.drops += 1;
            attempt()
        })
    }
}

/// What [`LinuxProc`] needs of `self/status`.
struct SelfStatus {
    pid: Pid,
    /// `Threads:` and `FDSize:`; 0 where the text has no such line.
    threads: usize,
    fd_size: usize,
}

fn parse_self_status(text: &str) -> Result<SelfStatus, &'static str> {
    let value = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .map(str::trim)
    };
    let count = |key: &str| value(key).and_then(|v| v.parse().ok()).unwrap_or(0);
    Ok(SelfStatus {
        pid: value("Pid:")
            .ok_or("no Pid line")?
            .parse()
            .map_err(|_| "bad Pid in /proc/self/status")?,
        threads: count("Threads:"),
        fd_size: count("FDSize:"),
    })
}

/// A [`ProcSource`] reading a (real or fixture) procfs directory tree.
#[derive(Debug)]
pub struct LinuxProc {
    root: PathBuf,
    /// Directory entries skipped during [`ProcSource::list_tasks`] scans
    /// because the entry itself could not be stat'ed (racing exits,
    /// permission churn). A count, not an error: the rest of the scan
    /// proceeds.
    scan_skips: Cell<u64>,
    /// Read buffer shared by the `_into` reads: one `/proc` record is in
    /// flight at a time, so the text lands in the same allocation every
    /// period instead of a fresh `read_to_string` String per read.
    buf: RefCell<Vec<u8>>,
    /// Scratch path reused across opens (`/proc/<pid>/task/<tid>/stat`
    /// path assembly otherwise allocates three times per open).
    path_buf: RefCell<String>,
    /// The task whose `<root>/<pid>/task/<tid>/` prefix `path_buf`
    /// holds, and the prefix's length: a round opens `schedstat`,
    /// `stat` and `status` of one task back to back, so two of three
    /// paths are the previous one with another leaf.
    path_task: Cell<Option<(Pid, Tid, usize)>>,
    cache: RefCell<HandleCache>,
    /// The latest successful `/proc/stat` read.
    forks: Cell<ForkClock>,
}

impl Default for LinuxProc {
    fn default() -> Self {
        Self::new()
    }
}

impl LinuxProc {
    /// Uses the system `/proc`, holding the files it reads open between
    /// rounds as far as the process's fd table, as it stands when this
    /// returns, has room: after construction the monitor never makes the
    /// table grow. Construct it before the application starts its
    /// threads — while the process has one thread the table is first
    /// brought to a size that fits a whole rank's handles, which costs
    /// no RCU grace period then and one per doubling later.
    pub fn new() -> Self {
        let src = Self::with_root("/proc");
        let budget = src.size_fd_table();
        src.cache.borrow_mut().budget = budget;
        src
    }

    /// Uses an alternate root (for tests / containers). Holds no file
    /// open: in a tree of regular files a replaced file keeps its old
    /// inode alive, so a held handle would read stale content forever.
    pub fn with_root(root: impl Into<PathBuf>) -> Self {
        LinuxProc {
            root: root.into(),
            scan_skips: Cell::new(0),
            buf: RefCell::new(Vec::new()),
            path_buf: RefCell::new(String::new()),
            path_task: Cell::new(None),
            cache: RefCell::default(),
            forks: Cell::default(),
        }
    }

    /// Total task-list entries skipped (rather than aborting the scan)
    /// since this source was created.
    pub fn scan_skips(&self) -> u64 {
        self.scan_skips.get()
    }

    /// File handles held open right now.
    pub fn handles_held(&self) -> usize {
        self.cache.borrow().held
    }

    /// Files opened, or tried, since this source was created (task
    /// listings not included).
    pub fn opens(&self) -> u64 {
        self.cache.borrow().opens
    }

    /// Task directories walked, or tried, since this source was created:
    /// the `list_tasks_into` calls the kernel's own evidence did not
    /// answer.
    pub fn listings(&self) -> u64 {
        self.cache.borrow().listings
    }

    /// Held handles dropped and re-opened by path because the kernel
    /// answered `ESRCH`: the task exited, or its tid was recycled.
    pub fn reopens(&self) -> u64 {
        self.cache.borrow().reopens
    }

    /// Handles closed after their read because keeping them would have
    /// exceeded the descriptor budget.
    pub fn retentions_refused(&self) -> u64 {
        self.cache.borrow().refused
    }

    /// Times the whole cache was dropped, for good, on `EMFILE`/`ENFILE`.
    pub fn cache_drops(&self) -> u64 {
        self.cache.borrow().drops
    }

    /// The pid of the calling process, read from `/proc/self/status`
    /// without libc.
    pub fn self_pid(&self) -> SourceResult<Pid> {
        self.self_status().map(|s| s.pid)
    }

    fn self_status(&self) -> SourceResult<SelfStatus> {
        let mut buf = self.buf.borrow_mut();
        self.read_with(ProcFile::SelfStatus, |f| {
            read_record(f, &mut buf).map(|text| parse_self_status(&String::from_utf8_lossy(text)))
        })?
        .map_err(malformed)
    }

    /// Sizes the fd table if that is still free and returns how many
    /// handles fit the table as it then stands: its slots, less the
    /// descriptors in use, less [`FD_HEADROOM`].
    fn size_fd_table(&self) -> usize {
        let Ok(status) = self.self_status() else {
            return 0;
        };
        let mut fd_size = status.fd_size;
        // `expand_fdtable` waits for an RCU grace period only when the
        // table is shared: with one thread, growing it is a memcpy.
        if status.threads == 1 {
            if let Ok(base) = File::open(self.root_path("stat").as_str()) {
                let mut reserve = Vec::new();
                // Descriptors come lowest-free-first, so this ends within
                // RESERVE_TOP_FD + 1 clones, or at RLIMIT_NOFILE before.
                for _ in 0..=RESERVE_TOP_FD {
                    let Ok(f) = base.try_clone() else { break };
                    let top = f.as_raw_fd() >= RESERVE_TOP_FD;
                    reserve.push(f);
                    if top {
                        break;
                    }
                }
            }
            fd_size = self.self_status().map_or(fd_size, |s| s.fd_size);
        }
        let fd_dir = self.root_path("self/fd");
        let in_use = std::fs::read_dir(fd_dir.as_str()).map_or(usize::MAX, Iterator::count);
        fd_size.saturating_sub(in_use).saturating_sub(FD_HEADROOM)
    }

    /// The one way a file under the root is read: `consume` gets the
    /// handle held for `file`, or a new one that is then held if a slot
    /// and the budget allow. A held handle is bound to the task it was
    /// opened on, so when that task is gone or its tid has a new owner
    /// the kernel answers `ESRCH`; the handle is dropped and the path
    /// opened once more, which finds the new owner or `NotFound`.
    fn read_with<T>(
        &self,
        file: ProcFile,
        mut consume: impl FnMut(&File) -> std::io::Result<T>,
    ) -> SourceResult<T> {
        let mut cache = self.cache.borrow_mut();
        if let Some(held) = cache.slot(file).and_then(|slot| slot.as_ref()) {
            match consume(held) {
                Err(e) if e.raw_os_error() == Some(ESRCH) => {}
                Ok(out) => return Ok(out),
                Err(e) => {
                    let path = self.path_of(file);
                    return Err(classify_read_error(&e, format_args!("{path}: {e}")));
                }
            }
            cache.release(file);
            cache.reopens += 1;
        }
        let path = self.path_of(file);
        let in_context = |e| classify_read_error(&e, format_args!("{path}: {e}"));
        cache.opens += 1;
        let handle = cache
            .open_with(|| File::open(path.as_str()))
            .map_err(in_context)?;
        let out = consume(&handle).map_err(in_context)?;
        cache.keep(file, handle);
        Ok(out)
    }

    fn path_of(&self, file: ProcFile) -> std::cell::RefMut<'_, String> {
        match file {
            ProcFile::SystemStat => self.root_path("stat"),
            ProcFile::Meminfo => self.root_path("meminfo"),
            ProcFile::SelfStatus => self.root_path("self/status"),
            ProcFile::Task(pid, tid, leaf) => {
                self.task_path(pid, tid, LEAVES.get(leaf).copied().unwrap_or_default())
            }
        }
    }

    /// Assembles `<root>/<pid>/task/<tid>/<leaf>` in the reusable path
    /// scratch, formatting the directory only when the task changes.
    fn task_path(&self, pid: Pid, tid: Tid, leaf: &str) -> std::cell::RefMut<'_, String> {
        use std::fmt::Write as _;
        let mut s = self.path_buf.borrow_mut();
        match self.path_task.get() {
            Some((p, t, dir_len)) if (p, t) == (pid, tid) => s.truncate(dir_len),
            _ => {
                s.clear();
                let _ = write!(s, "{}/{pid}/task/{tid}/", self.root.display());
                self.path_task.set(Some((pid, tid, s.len())));
            }
        }
        s.push_str(leaf);
        s
    }

    /// The path scratch, emptied, for a path that is no task's file.
    fn fresh_path(&self) -> std::cell::RefMut<'_, String> {
        self.path_task.set(None);
        let mut s = self.path_buf.borrow_mut();
        s.clear();
        s
    }

    /// Assembles `<root>/<leaf>` in the reusable path scratch.
    fn root_path(&self, leaf: &str) -> std::cell::RefMut<'_, String> {
        use std::fmt::Write as _;
        let mut s = self.fresh_path();
        let _ = write!(s, "{}/{leaf}", self.root.display());
        s
    }

    /// Assembles `<root>/<pid>/task` in the reusable path scratch.
    fn task_dir(&self, pid: Pid) -> std::cell::RefMut<'_, String> {
        use std::fmt::Write as _;
        let mut s = self.fresh_path();
        let _ = write!(s, "{}/{pid}/task", self.root.display());
        s
    }

    /// The root this source reads from.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

fn malformed(e: impl std::fmt::Display) -> SourceError {
    SourceError::Malformed(e.to_string())
}

impl ProcSource for LinuxProc {
    fn system_stat(&self) -> SourceResult<SystemStat> {
        let mut out = SystemStat::default();
        self.system_stat_into(&mut out)?;
        Ok(out)
    }

    fn system_stat_into(&self, out: &mut SystemStat) -> SourceResult<()> {
        let mut buf = self.buf.borrow_mut();
        self.read_with(ProcFile::SystemStat, |f| {
            read_record(f, &mut buf).map(|text| parse::parse_system_stat_into(text, out))
        })?
        .map_err(malformed)?;
        self.forks.set(ForkClock {
            processes: out.processes,
            reads: self.forks.get().reads + 1,
        });
        Ok(())
    }

    fn meminfo(&self) -> SourceResult<MemInfo> {
        let mut buf = self.buf.borrow_mut();
        self.read_with(ProcFile::Meminfo, |f| {
            read_record(f, &mut buf).map(parse::parse_meminfo)
        })?
        .map_err(malformed)
    }

    fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
        let mut tids = Vec::new();
        self.list_tasks_into(pid, &mut tids)?;
        Ok(tids)
    }

    fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
        let mut out = TaskStat::default();
        self.task_stat_into(pid, tid, &mut out)?;
        Ok(out)
    }

    fn task_stat_into(&self, pid: Pid, tid: Tid, out: &mut TaskStat) -> SourceResult<()> {
        let mut buf = self.buf.borrow_mut();
        self.read_with(ProcFile::Task(pid, tid, STAT), |f| {
            read_record(f, &mut buf)
                .map(|text| parse::parse_task_stat_into(text.trim_ascii_end(), out))
        })?
        .map_err(malformed)
    }

    fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
        let mut out = TaskStatus::default();
        self.task_status_into(pid, tid, &mut out)?;
        Ok(out)
    }

    fn task_status_into(&self, pid: Pid, tid: Tid, out: &mut TaskStatus) -> SourceResult<()> {
        let mut buf = self.buf.borrow_mut();
        self.read_with(ProcFile::Task(pid, tid, STATUS), |f| {
            read_record(f, &mut buf).map(|text| parse::parse_task_status_into(text, out))
        })?
        .map_err(malformed)
    }

    fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
        let mut buf = self.buf.borrow_mut();
        self.read_with(ProcFile::Task(pid, tid, SCHEDSTAT), |f| {
            read_record(f, &mut buf).map(parse::parse_schedstat)
        })?
        .map_err(malformed)
    }

    fn task_stat_text(
        &self,
        pid: Pid,
        tid: Tid,
        arena: &mut crate::arena::ReadArena,
    ) -> SourceResult<crate::arena::ArenaSpan> {
        self.read_with(ProcFile::Task(pid, tid, STAT), |f| {
            arena.append_file(f, true)
        })
    }

    fn task_status_text(
        &self,
        pid: Pid,
        tid: Tid,
        arena: &mut crate::arena::ReadArena,
    ) -> SourceResult<crate::arena::ArenaSpan> {
        self.read_with(ProcFile::Task(pid, tid, STATUS), |f| {
            arena.append_file(f, false)
        })
    }

    /// The tids of `pid`, ascending — from the slots of its last
    /// listing when the kernel's own evidence proves a walk of the
    /// directory would find that same set, as of this round's
    /// `/proc/stat` read: no task was born on the node since before the
    /// slots were listed ([`PidHandles::no_births_by`]), and the
    /// directory's `nlink`, which procfs keeps at 2 + threads, still
    /// counts them, so none left either. Any doubt is a walk.
    fn list_tasks_into(&self, pid: Pid, out: &mut Vec<Tid>) -> SourceResult<()> {
        out.clear();
        let dir = self.task_dir(pid);
        let mut cache = self.cache.borrow_mut();
        let now = self.forks.get();
        if let Some(p) = cache.pids.iter_mut().find(|p| p.pid == pid) {
            let unchanged = p.no_births_by(now)
                && std::fs::metadata(dir.as_str())
                    .is_ok_and(|m| m.nlink() == 2 + p.tasks.len() as u64);
            p.listed.reads = now.reads;
            if unchanged {
                out.extend(p.tasks.iter().map(|t| t.tid));
                return Ok(());
            }
        }
        cache.listings += 1;
        let entries = cache
            .open_with(|| std::fs::read_dir(dir.as_str()))
            .map_err(|e| {
                let e = classify_read_error(&e, format_args!("{dir}: {e}"));
                if e == SourceError::NotFound {
                    cache.purge(pid);
                }
                e
            })?;
        drop(dir);
        for entry in entries {
            // A single unreadable entry (a task racing to exit, or a
            // permission-restricted sibling) must not abort the whole
            // scan — skip it and count, mirroring the NotFound tolerance
            // of the per-task reads.
            let entry = match entry {
                Ok(e) => e,
                Err(_) => {
                    self.scan_skips.set(self.scan_skips.get() + 1);
                    continue;
                }
            };
            if let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) {
                out.push(tid);
            }
        }
        out.sort_unstable();
        cache.sweep(pid, out, now);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live_threads::{own_tid, parked_thread};

    // These tests run against the real /proc of the build machine — the
    // same records ZeroSum reads on an HPC login/compute node.

    #[test]
    fn reads_real_system_stat() {
        let src = LinuxProc::new();
        let s = src.system_stat().expect("read /proc/stat");
        assert!(!s.cpus.is_empty());
        assert!(s.total.total() > 0);
    }

    #[test]
    fn reads_real_meminfo() {
        let src = LinuxProc::new();
        let m = src.meminfo().expect("read /proc/meminfo");
        assert!(m.mem_total_kib > 0);
        assert!(m.mem_available_kib <= m.mem_total_kib);
    }

    #[test]
    fn lists_and_reads_own_tasks() {
        let src = LinuxProc::new();
        let pid = src.self_pid().expect("self pid");
        let tids = src.list_tasks(pid).expect("task list");
        assert!(tids.contains(&pid), "main thread tid == pid");
        let stat = src.task_stat(pid, pid).expect("task stat");
        assert_eq!(stat.tid, pid);
        let status = src.task_status(pid, pid).expect("task status");
        assert_eq!(status.tgid, pid);
        assert!(!status.cpus_allowed.is_empty());
    }

    #[test]
    fn own_process_status_matches_main_task() {
        let src = LinuxProc::new();
        let pid = src.self_pid().unwrap();
        let st = src.process_status(pid).unwrap();
        assert_eq!(st.tid, pid);
        assert!(st.vm_rss_kib > 0);
    }

    #[test]
    fn schedstat_reads_when_kernel_exposes_it() {
        let src = LinuxProc::new();
        let pid = src.self_pid().unwrap();
        match src.task_schedstat(pid, pid) {
            Ok(ss) => assert!(ss.run_ns > 0, "self has run"),
            // CONFIG_SCHED_INFO may be off; NotFound is acceptable.
            Err(SourceError::NotFound) => {}
            Err(other) => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn raw_text_reads_parse_like_typed_reads() {
        let src = LinuxProc::new();
        let pid = src.self_pid().unwrap();
        let mut arena = crate::arena::ReadArena::new();
        let span = src.task_stat_text(pid, pid, &mut arena).unwrap();
        let line = arena.get(span).unwrap();
        assert_eq!(parse::parse_task_stat_view(line).unwrap().tid, pid);
        let span = src.task_status_text(pid, pid, &mut arena).unwrap();
        let st = parse::parse_task_status(arena.get(span).unwrap()).unwrap();
        assert_eq!(st.tid, pid);
        assert_eq!(st.tgid, pid);
        // Vanished tasks classify exactly like the typed reads.
        assert!(matches!(
            src.task_stat_text(pid, 4_294_967, &mut arena),
            Err(SourceError::NotFound)
        ));
    }

    #[test]
    fn read_errors_classify_by_kind() {
        assert_eq!(
            classify_read_error(&ErrorKind::NotFound.into(), "x"),
            SourceError::NotFound
        );
        // What `read` says of a task that exited after `open`; std has
        // no kind for it.
        let esrch = std::io::Error::from_raw_os_error(ESRCH);
        assert_ne!(esrch.kind(), ErrorKind::NotFound);
        assert_eq!(classify_read_error(&esrch, "x"), SourceError::NotFound);
        match classify_read_error(
            &ErrorKind::PermissionDenied.into(),
            "/proc/1/task/1/stat: EPERM",
        ) {
            SourceError::Denied(msg) => assert!(msg.contains("EPERM")),
            other => panic!("expected Denied, got {other:?}"),
        }
        match classify_read_error(&ErrorKind::TimedOut.into(), "slow") {
            SourceError::Io(msg) => assert!(msg.contains("slow")),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    /// A source on the live `/proc` that may hold `budget` handles,
    /// whatever the (multithreaded) test harness's fd table looks like.
    fn retaining(budget: usize) -> LinuxProc {
        let src = LinuxProc::with_root("/proc");
        src.cache.borrow_mut().budget = budget;
        src
    }

    #[test]
    fn held_handles_are_read_again_and_an_exited_thread_is_not_found() {
        let src = retaining(32);
        let pid = src.self_pid().unwrap();
        let (tid, go, thread) = parked_thread();
        let mut arena = crate::arena::ReadArena::new();
        let mut read_all = |src: &LinuxProc| {
            arena.reset();
            src.task_schedstat(pid, tid)
                .and(src.task_stat_text(pid, tid, &mut arena))
                .and(src.task_status_text(pid, tid, &mut arena))
                .map(|_| ())
        };
        // Not listed yet: read, not retained (`self/status` was one).
        read_all(&src).unwrap();
        assert_eq!((src.opens(), src.handles_held()), (1 + 3, 0));
        assert!(src.list_tasks(pid).unwrap().contains(&tid));
        read_all(&src).unwrap();
        assert_eq!((src.opens(), src.handles_held()), (1 + 6, 3));
        // Held: later rounds open nothing.
        for _ in 0..3 {
            read_all(&src).unwrap();
        }
        assert_eq!(src.task_stat(pid, tid).unwrap().tid, tid);
        assert_eq!((src.opens(), src.handles_held()), (1 + 6, 3));
        // A held handle is a window, not a snapshot: this thread's own
        // on-CPU time moves between two reads of the same handle.
        let me = own_tid();
        let run_ns = |src: &LinuxProc| src.task_schedstat(pid, me).unwrap().run_ns;
        let (first, opens) = (run_ns(&src), src.opens());
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(run_ns(&src) > first);
        assert_eq!(src.opens(), opens);
        src.cache
            .borrow_mut()
            .release(ProcFile::Task(pid, me, SCHEDSTAT));
        drop(go);
        thread.join().unwrap();
        // `join` can return a moment before the kernel unhashes the
        // task; from then on every read is the §3.1.1 departure, never
        // an I/O error.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while read_all(&src).is_ok() {
            assert!(std::time::Instant::now() < deadline, "tid {tid} never left");
            std::thread::yield_now();
        }
        assert_eq!(read_all(&src), Err(SourceError::NotFound));
        assert!(
            src.reopens() >= 1,
            "ESRCH on the held handle, then the path"
        );
        assert_eq!(src.handles_held(), 0);
        // The next listing drops the slots as well.
        assert!(!src.list_tasks(pid).unwrap().contains(&tid));
        assert!(src.cache.borrow().pids[0]
            .tasks
            .iter()
            .all(|t| t.tid != tid));
    }

    #[test]
    fn the_budget_bounds_what_is_held_and_listings_close_the_departed() {
        let src = retaining(5);
        let pid = src.self_pid().unwrap();
        let parked: Vec<_> = (0..3).map(|_| parked_thread()).collect();
        let tids: Vec<Tid> = parked.iter().map(|p| p.0).collect();
        let round = |src: &LinuxProc| {
            let listed = src.list_tasks(pid).unwrap();
            src.system_stat().unwrap();
            src.meminfo().unwrap();
            for &tid in tids.iter().filter(|t| listed.contains(t)) {
                src.task_schedstat(pid, tid).unwrap();
                src.task_stat(pid, tid).unwrap();
                src.task_status(pid, tid).unwrap();
            }
        };
        round(&src);
        // /proc/stat, meminfo and the first task's three; the other six
        // reads closed their handle as they always did.
        assert_eq!((src.handles_held(), src.retentions_refused()), (5, 6));
        let opens = src.opens();
        round(&src);
        assert_eq!((src.handles_held(), src.opens()), (5, opens + 6));
        // The holder of the three task handles leaves: its slots close
        // with the listing, and the next task in line takes the room.
        let mut parked = parked.into_iter();
        let (_, go, thread) = parked.next().unwrap();
        drop(go);
        thread.join().unwrap();
        while src.list_tasks(pid).unwrap().contains(&tids[0]) {
            std::thread::yield_now();
        }
        assert_eq!(src.handles_held(), 2);
        round(&src);
        assert_eq!(src.handles_held(), 5);
        // A pid whose listing is NotFound is forgotten whole.
        src.cache.borrow_mut().pids[0].pid = 4_294_967;
        assert_eq!(src.list_tasks(4_294_967), Err(SourceError::NotFound));
        assert_eq!(src.handles_held(), 2);
        assert!(src.cache.borrow().pids.is_empty());
        assert_eq!(src.cache_drops(), 0);
    }

    #[test]
    fn descriptor_exhaustion_drops_the_cache_for_good() {
        let src = retaining(8);
        let pid = src.self_pid().unwrap();
        src.list_tasks(pid).unwrap();
        src.system_stat().unwrap();
        src.task_stat(pid, pid).unwrap();
        assert_eq!(src.handles_held(), 2);
        let calls = Cell::new(0);
        let out = src.cache.borrow_mut().open_with(|| {
            calls.set(calls.get() + 1);
            match calls.get() {
                1 => Err(std::io::Error::from_raw_os_error(EMFILE)),
                _ => Ok("second try"),
            }
        });
        assert_eq!((out.unwrap(), calls.get()), ("second try", 2));
        assert_eq!((src.handles_held(), src.cache_drops()), (0, 1));
        // Reads go on, one transient descriptor at a time.
        src.list_tasks(pid).unwrap();
        assert_eq!(src.task_stat(pid, pid).unwrap().tid, pid);
        assert_eq!(src.handles_held(), 0);
        // Any other failure is the caller's to classify, cache untouched.
        let denied = src
            .cache
            .borrow_mut()
            .open_with(|| Err::<(), _>(ErrorKind::PermissionDenied.into()));
        assert_eq!(denied.unwrap_err().kind(), ErrorKind::PermissionDenied);
        assert_eq!(src.cache_drops(), 1);
    }

    /// One round's first two calls, in the engine's order.
    fn stat_then_list(src: &LinuxProc, pid: Pid) -> SourceResult<Vec<Tid>> {
        src.system_stat()?;
        src.list_tasks(pid)
    }

    /// Lets a parked thread go and waits until the kernel has unhashed
    /// it (`join` can return a moment before).
    fn retire(
        (tid, go, thread): (
            Tid,
            std::sync::mpsc::Sender<()>,
            std::thread::JoinHandle<()>,
        ),
    ) {
        drop(go);
        thread.join().unwrap();
        while Path::new(&format!("/proc/self/task/{tid}")).exists() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn the_listing_after_a_spawn_an_exit_or_both_is_the_new_set() {
        // Sibling tests' threads come and go in this process: every
        // assertion is on tids this test owns, and holds whether the
        // answer came from the slots or from a walk.
        let src = retaining(8);
        let pid = src.self_pid().unwrap();
        let first = parked_thread();
        assert!(stat_then_list(&src, pid).unwrap().contains(&first.0));
        assert!(stat_then_list(&src, pid).unwrap().contains(&first.0));
        // Born between two rounds: in the very next listing.
        let second = parked_thread();
        let listed = stat_then_list(&src, pid).unwrap();
        assert!(listed.contains(&first.0) && listed.contains(&second.0));
        assert!(listed.is_sorted());
        // Gone between two rounds: absent from it.
        let gone = second.0;
        retire(second);
        let listed = stat_then_list(&src, pid).unwrap();
        assert!(listed.contains(&first.0) && !listed.contains(&gone));
        // One exit and one spawn between the same two rounds: `nlink`
        // reads as before, `processes` does not.
        let gone = first.0;
        retire(first);
        let third = parked_thread();
        let listed = stat_then_list(&src, pid).unwrap();
        assert!(listed.contains(&third.0) && !listed.contains(&gone));
        let slots = &src.cache.borrow().pids[0].tasks;
        assert!(slots.iter().map(|t| t.tid).eq(listed.iter().copied()));
        retire(third);
    }

    #[test]
    fn one_stat_read_vouches_for_one_listing() {
        let src = retaining(8);
        let pid = src.self_pid().unwrap();
        stat_then_list(&src, pid).unwrap();
        assert_eq!(src.listings(), 1, "nothing to reuse yet");
        // No `/proc/stat` read since: both calls walk the directory.
        src.list_tasks(pid).unwrap();
        src.list_tasks(pid).unwrap();
        assert_eq!(src.listings(), 3);
        // Whatever the first of these two did, it used the read up.
        stat_then_list(&src, pid).unwrap();
        let before = src.listings();
        src.list_tasks(pid).unwrap();
        assert_eq!(src.listings(), before + 1);
    }

    #[test]
    fn each_clause_of_the_reuse_rule_is_needed() {
        // A fixture tree, so that nothing moves but what the test moves.
        let dir = std::env::temp_dir().join(format!("zs-procreuse-{}", std::process::id()));
        let task_dir = dir.join("9/task");
        let stat = |processes: &str| {
            let text = format!("cpu 1 0 1 7\ncpu0 1 0 1 7\nctxt 5\n{processes}");
            std::fs::write(dir.join("stat"), text).unwrap();
        };
        std::fs::create_dir_all(task_dir.join("9")).unwrap();
        stat("processes 7\n");
        if std::fs::metadata(&task_dir).unwrap().nlink() != 3 {
            eprintln!("reuse rule: SKIPPED (this filesystem keeps no directory nlink)");
            std::fs::remove_dir_all(&dir).ok();
            return;
        }
        let src = LinuxProc::with_root(&dir);
        src.cache.borrow_mut().budget = 8;
        assert_eq!(stat_then_list(&src, 9).unwrap(), vec![9]);
        // Newer read, same count, same nlink: the slots answer.
        assert_eq!(stat_then_list(&src, 9).unwrap(), vec![9]);
        assert_eq!(src.listings(), 1);
        // A task more, `processes` silent: `nlink` says so.
        std::fs::create_dir(task_dir.join("10")).unwrap();
        assert_eq!(stat_then_list(&src, 9).unwrap(), vec![9, 10]);
        assert_eq!(src.listings(), 2);
        // One left and one came, `nlink` silent: `processes` says so.
        std::fs::remove_dir(task_dir.join("9")).unwrap();
        std::fs::create_dir(task_dir.join("11")).unwrap();
        stat("processes 8\n");
        assert_eq!(stat_then_list(&src, 9).unwrap(), vec![10, 11]);
        assert_eq!(src.listings(), 3);
        assert_eq!(stat_then_list(&src, 9).unwrap(), vec![10, 11]);
        assert_eq!(src.listings(), 3);
        // A text without the line, or with a zero, licenses nothing.
        for silent in ["", "processes 0\n"] {
            stat(silent);
            let before = src.listings();
            assert_eq!(stat_then_list(&src, 9).unwrap(), vec![10, 11]);
            assert_eq!(stat_then_list(&src, 9).unwrap(), vec![10, 11]);
            assert_eq!(src.listings(), before + 2);
        }
        // Nor does a read that failed.
        stat("processes 8\n");
        stat_then_list(&src, 9).unwrap();
        std::fs::write(dir.join("stat"), "processes 8\n").unwrap();
        let before = src.listings();
        assert!(matches!(src.system_stat(), Err(SourceError::Malformed(_))));
        src.list_tasks(9).unwrap();
        assert_eq!(src.listings(), before + 1);
        // A pid that vanished under a standing licence is `NotFound`
        // and forgotten, as from a walk.
        stat("processes 8\n");
        stat_then_list(&src, 9).unwrap();
        std::fs::remove_dir_all(dir.join("9")).unwrap();
        assert_eq!(stat_then_list(&src, 9), Err(SourceError::NotFound));
        assert!(src.cache.borrow().pids.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_source_without_slots_walks_every_time() {
        let exhausted = retaining(8);
        let pid = exhausted.self_pid().unwrap();
        stat_then_list(&exhausted, pid).unwrap();
        let tried = Cell::new(false);
        let retried = exhausted
            .cache
            .borrow_mut()
            .open_with(|| match tried.replace(true) {
                false => Err(std::io::Error::from_raw_os_error(EMFILE)),
                true => Ok(()),
            });
        assert!(retried.is_ok() && exhausted.cache_drops() == 1);
        for src in [LinuxProc::with_root("/proc"), retaining(0), exhausted] {
            let before = src.listings();
            for _ in 0..3 {
                assert!(stat_then_list(&src, pid).unwrap().contains(&pid));
            }
            assert_eq!(src.listings(), before + 3);
            assert!(src.cache.borrow().pids.is_empty());
        }
    }

    #[test]
    fn new_takes_the_fd_table_as_a_threaded_process_has_it() {
        // The harness runs tests on threads, so this is the late attach:
        // no reserve, and a budget inside the table that is there.
        let fd_size = |src: &LinuxProc| src.self_status().unwrap().fd_size;
        let before = fd_size(&LinuxProc::with_root("/proc"));
        let src = LinuxProc::new();
        let budget = src.cache.borrow().budget;
        assert!(budget + FD_HEADROOM <= fd_size(&src), "budget {budget}");
        let pid = src.self_pid().unwrap();
        for _ in 0..3 {
            for tid in src.list_tasks(pid).unwrap() {
                let _ = src.task_schedstat(pid, tid);
                let _ = src.task_stat(pid, tid);
                let _ = src.task_status(pid, tid);
            }
        }
        assert!(src.handles_held() <= budget);
        // Other tests open files of their own; what this source holds
        // cannot have been what grew the table if it did.
        assert!(fd_size(&src) == before || src.handles_held() + FD_HEADROOM <= before);
    }

    #[test]
    fn self_status_needs_only_the_pid_line() {
        let s = parse_self_status("Name:\tx\nPid:\t 41\nFDSize:\t256\nThreads:\t3\n").unwrap();
        assert_eq!((s.pid, s.threads, s.fd_size), (41, 3, 256));
        let s = parse_self_status("Pid: 7\n").unwrap();
        assert_eq!((s.pid, s.threads, s.fd_size), (7, 0, 0));
        assert_eq!(parse_self_status("Name: x\n").err(), Some("no Pid line"));
        assert!(parse_self_status("Pid: x\n").is_err());
    }

    #[test]
    fn fixture_task_recreated_under_the_same_tid_reads_the_new_content() {
        let dir = std::env::temp_dir().join(format!("zs-procredo-{}", std::process::id()));
        let task = dir.join("9/task/9");
        let write = |run_ns: u64| {
            std::fs::create_dir_all(&task).unwrap();
            std::fs::write(task.join("schedstat"), format!("{run_ns} 2 3\n")).unwrap();
        };
        write(100);
        let src = LinuxProc::with_root(&dir);
        assert_eq!(src.list_tasks(9).unwrap(), vec![9]);
        assert_eq!(src.task_schedstat(9, 9).unwrap().run_ns, 100);
        std::fs::remove_dir_all(&task).unwrap();
        assert_eq!(src.task_schedstat(9, 9), Err(SourceError::NotFound));
        write(200);
        assert_eq!(src.list_tasks(9).unwrap(), vec![9]);
        assert_eq!(src.task_schedstat(9, 9).unwrap().run_ns, 200);
        // A file replaced in place, too: a fixture root holds nothing.
        std::fs::write(task.join("schedstat"), "300 2 3\n").unwrap();
        assert_eq!(src.task_schedstat(9, 9).unwrap().run_ns, 300);
        assert_eq!((src.handles_held(), src.opens()), (0, 4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_skip_counter_starts_at_zero_and_survives_scans() {
        let src = LinuxProc::new();
        let pid = src.self_pid().unwrap();
        src.list_tasks(pid).unwrap();
        // A healthy scan of our own task dir skips nothing.
        assert_eq!(src.scan_skips(), 0);
    }

    #[test]
    fn missing_pid_is_not_found() {
        let src = LinuxProc::new();
        // pid 4294967 is vanishingly unlikely to exist (beyond pid_max).
        match src.list_tasks(4_294_967) {
            Err(SourceError::NotFound) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn fixture_root_works() {
        let dir = std::env::temp_dir().join(format!("zs-procfix-{}", std::process::id()));
        let task = dir.join("42/task/42");
        std::fs::create_dir_all(&task).unwrap();
        std::fs::write(
            dir.join("stat"),
            "cpu 1 0 1 7 0 0 0 0 0 0\ncpu0 1 0 1 7 0 0 0 0 0 0\nctxt 5\nprocesses 1\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("meminfo"),
            "MemTotal: 100 kB\nMemFree: 50 kB\nMemAvailable: 60 kB\n",
        )
        .unwrap();
        std::fs::write(task.join("stat"), "42 (fix) S 1 42 42 0 -1 0 0 0 0 0 1 2 0 0 20 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 3 0 0 0 0 0 0 0 0 0 0 0 0 0").unwrap();
        std::fs::write(task.join("status"), "Name: fix\nTgid: 42\nPid: 42\nState: S (sleeping)\nCpus_allowed_list: 0\nvoluntary_ctxt_switches: 1\nnonvoluntary_ctxt_switches: 0\n").unwrap();
        let src = LinuxProc::with_root(&dir);
        assert_eq!(src.system_stat().unwrap().ctxt, 5);
        assert_eq!(src.meminfo().unwrap().mem_total_kib, 100);
        assert_eq!(src.list_tasks(42).unwrap(), vec![42]);
        assert_eq!(src.task_stat(42, 42).unwrap().comm, "fix");
        assert_eq!(src.task_status(42, 42).unwrap().tgid, 42);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn path_scratch_follows_interleaved_tasks_and_system_files() {
        // The scratch keeps one task's directory prefix; every switch
        // of task, and every system file or listing in between, must
        // land on the right file all the same.
        let dir = std::env::temp_dir().join(format!("zs-procpath-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("stat"), "cpu 1 0 1 7\ncpu0 1 0 1 7\nctxt 5\n").unwrap();
        std::fs::write(dir.join("meminfo"), "MemTotal: 100 kB\n").unwrap();
        // Tids of different width, so a stale prefix length would show.
        let tids = [7u32, 12345];
        for tid in tids {
            let task = dir.join(format!("7/task/{tid}"));
            std::fs::create_dir_all(&task).unwrap();
            std::fs::write(task.join("stat"), format!("{tid} (t{tid}) S 1 7 7 0 -1 0 0 0 0 0 {tid} 2 0 0 20 0 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 3 0 0 0 0 0 0 0 0 0 0 0 0 0")).unwrap();
            std::fs::write(
                task.join("status"),
                format!("Name:\tt{tid}\nTgid:\t7\nPid:\t{tid}\n"),
            )
            .unwrap();
            std::fs::write(task.join("schedstat"), format!("{tid} 2 3\n")).unwrap();
        }
        let src = LinuxProc::with_root(&dir);
        let check = |tid: u32| {
            assert_eq!(src.task_schedstat(7, tid).unwrap().run_ns, u64::from(tid));
            assert_eq!(src.task_stat(7, tid).unwrap().utime, u64::from(tid));
            assert_eq!(src.task_status(7, tid).unwrap().tid, tid);
        };
        for round in 0..3 {
            for tid in tids {
                check(tid);
                match round {
                    0 => {}
                    1 => assert_eq!(src.system_stat().unwrap().ctxt, 5),
                    _ => assert_eq!(src.list_tasks(7).unwrap(), tids),
                }
            }
            assert_eq!(src.meminfo().unwrap().mem_total_kib, 100);
        }
        // Leaves of one task interleaved with another task's.
        assert_eq!(src.task_status(7, 7).unwrap().name, "t7");
        assert_eq!(src.task_status(7, 12345).unwrap().name, "t12345");
        assert_eq!(src.task_stat(7, 7).unwrap().comm, "t7");
        let mut arena = crate::arena::ReadArena::new();
        let span = src.task_stat_text(7, 12345, &mut arena).unwrap();
        assert!(arena.get(span).unwrap().starts_with(b"12345 (t12345)"));
        let span = src.task_status_text(7, 7, &mut arena).unwrap();
        assert!(arena.get(span).unwrap().starts_with(b"Name:\tt7"));
        // The same tid under another pid is another directory.
        assert!(matches!(src.task_stat(8, 7), Err(SourceError::NotFound)));
        assert_eq!(src.task_stat(7, 7).unwrap().tid, 7);
        std::fs::remove_dir_all(&dir).ok();
    }
}
