//! The live-Linux [`ProcSource`] backend.
//!
//! Reads a real `/proc` mount using only `std::fs` — no libc, no root, no
//! daemons; exactly the user-space access model the paper argues for. The
//! root directory is configurable so tests can point it at a fixture tree.

use crate::arena::read_record;
use crate::parse;
use crate::source::{ProcSource, SourceError, SourceResult};
use crate::types::{MemInfo, Pid, SchedStat, SystemStat, TaskStat, TaskStatus, Tid};
use std::cell::{Cell, RefCell};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// Maps a filesystem error on a procfs read to the source taxonomy:
/// vanished records are [`SourceError::NotFound`], permission failures
/// are [`SourceError::Denied`] (so callers can skip-with-count instead
/// of aborting a scan), everything else is [`SourceError::Io`].
fn classify_read_error(kind: ErrorKind, context: impl std::fmt::Display) -> SourceError {
    match kind {
        ErrorKind::NotFound => SourceError::NotFound,
        ErrorKind::PermissionDenied => SourceError::Denied(context.to_string()),
        _ => SourceError::Io(context.to_string()),
    }
}

/// A [`ProcSource`] reading a (real or fixture) procfs directory tree.
#[derive(Debug, Clone)]
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
    /// Scratch path reused across reads (`/proc/<pid>/task/<tid>/stat`
    /// path assembly otherwise allocates three times per read).
    path_buf: RefCell<String>,
    /// The task whose `<root>/<pid>/task/<tid>/` prefix `path_buf`
    /// holds, and the prefix's length: a round reads `schedstat`,
    /// `stat` and `status` of one task back to back, so two of three
    /// paths are the previous one with another leaf.
    path_task: Cell<Option<(Pid, Tid, usize)>>,
}

impl Default for LinuxProc {
    fn default() -> Self {
        Self::new()
    }
}

impl LinuxProc {
    /// Uses the system `/proc`.
    pub fn new() -> Self {
        Self::with_root("/proc")
    }

    /// Uses an alternate root (for tests / containers).
    pub fn with_root(root: impl Into<PathBuf>) -> Self {
        LinuxProc {
            root: root.into(),
            scan_skips: Cell::new(0),
            buf: RefCell::new(Vec::new()),
            path_buf: RefCell::new(String::new()),
            path_task: Cell::new(None),
        }
    }

    /// Total task-list entries skipped (rather than aborting the scan)
    /// since this source was created.
    pub fn scan_skips(&self) -> u64 {
        self.scan_skips.get()
    }

    /// The pid of the calling process, read from `/proc/self/status`
    /// without libc.
    pub fn self_pid(&self) -> SourceResult<Pid> {
        let text = self.read(self.root.join("self/status"))?;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("Pid:") {
                return rest
                    .trim()
                    .parse()
                    .map_err(|_| SourceError::Malformed("bad Pid in /proc/self/status".into()));
            }
        }
        Err(SourceError::Malformed("no Pid line".into()))
    }

    fn read(&self, path: PathBuf) -> SourceResult<String> {
        std::fs::read_to_string(&path)
            .map_err(|e| classify_read_error(e.kind(), format_args!("{}: {e}", path.display())))
    }

    /// Reads `path` whole into `buf`, reusing its allocation, and
    /// returns the text.
    fn read_into_buf<'a>(&self, path: &str, buf: &'a mut Vec<u8>) -> SourceResult<&'a str> {
        read_record(path, buf)
            .map_err(|e| classify_read_error(e.kind(), format_args!("{path}: {e}")))
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
    fn task_root_path(&self, leaf: &str) -> std::cell::RefMut<'_, String> {
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
        let path = self.task_root_path("stat");
        let mut buf = self.buf.borrow_mut();
        let text = self.read_into_buf(&path, &mut buf)?;
        parse::parse_system_stat_into(text, out).map_err(malformed)
    }

    fn meminfo(&self) -> SourceResult<MemInfo> {
        let path = self.task_root_path("meminfo");
        let mut buf = self.buf.borrow_mut();
        let text = self.read_into_buf(&path, &mut buf)?;
        parse::parse_meminfo(text).map_err(malformed)
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
        let path = self.task_path(pid, tid, "stat");
        let mut buf = self.buf.borrow_mut();
        let text = self.read_into_buf(&path, &mut buf)?;
        parse::parse_task_stat_into(text.trim_end(), out).map_err(malformed)
    }

    fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
        let mut out = TaskStatus::default();
        self.task_status_into(pid, tid, &mut out)?;
        Ok(out)
    }

    fn task_status_into(&self, pid: Pid, tid: Tid, out: &mut TaskStatus) -> SourceResult<()> {
        let path = self.task_path(pid, tid, "status");
        let mut buf = self.buf.borrow_mut();
        let text = self.read_into_buf(&path, &mut buf)?;
        parse::parse_task_status_into(text, out).map_err(malformed)
    }

    fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
        let path = self.task_path(pid, tid, "schedstat");
        let mut buf = self.buf.borrow_mut();
        let text = self.read_into_buf(&path, &mut buf)?;
        parse::parse_schedstat(text).map_err(malformed)
    }

    fn task_stat_text(
        &self,
        pid: Pid,
        tid: Tid,
        arena: &mut crate::arena::ReadArena,
    ) -> SourceResult<crate::arena::ArenaSpan> {
        let path = self.task_path(pid, tid, "stat");
        arena
            .append_file(&path, true)
            .map_err(|e| classify_read_error(e.kind(), format_args!("{}: {e}", &*path)))
    }

    fn task_status_text(
        &self,
        pid: Pid,
        tid: Tid,
        arena: &mut crate::arena::ReadArena,
    ) -> SourceResult<crate::arena::ArenaSpan> {
        let path = self.task_path(pid, tid, "status");
        arena
            .append_file(&path, false)
            .map_err(|e| classify_read_error(e.kind(), format_args!("{}: {e}", &*path)))
    }

    fn list_tasks_into(&self, pid: Pid, out: &mut Vec<Tid>) -> SourceResult<()> {
        out.clear();
        let dir = self.task_dir(pid);
        let entries = std::fs::read_dir(&*dir)
            .map_err(|e| classify_read_error(e.kind(), format_args!("{dir}: {e}")))?;
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            classify_read_error(ErrorKind::NotFound, "x"),
            SourceError::NotFound
        );
        match classify_read_error(ErrorKind::PermissionDenied, "/proc/1/task/1/stat: EPERM") {
            SourceError::Denied(msg) => assert!(msg.contains("EPERM")),
            other => panic!("expected Denied, got {other:?}"),
        }
        match classify_read_error(ErrorKind::TimedOut, "slow") {
            SourceError::Io(msg) => assert!(msg.contains("slow")),
            other => panic!("expected Io, got {other:?}"),
        }
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
        assert!(arena.get(span).unwrap().starts_with("12345 (t12345)"));
        let span = src.task_status_text(7, 7, &mut arena).unwrap();
        assert!(arena.get(span).unwrap().starts_with("Name:\tt7"));
        // The same tid under another pid is another directory.
        assert!(matches!(src.task_stat(8, 7), Err(SourceError::NotFound)));
        assert_eq!(src.task_stat(7, 7).unwrap().tid, 7);
        std::fs::remove_dir_all(&dir).ok();
    }
}
