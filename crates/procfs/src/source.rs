//! The `/proc`-shaped boundary between the monitor and the system.
//!
//! [`ProcSource`] is the only interface through which ZeroSum's monitor
//! observes a machine. Two implementations exist: [`crate::linux::LinuxProc`]
//! reads a live `/proc` filesystem; `zerosum-sched` provides a simulated
//! source backed by its node model. Because the trait surface matches what
//! `/proc` offers (and nothing more), the monitor cannot accidentally
//! depend on simulator internals.

use crate::arena::{ArenaSpan, ReadArena};
use crate::types::{MemInfo, Pid, SystemStat, TaskStat, TaskStatus, Tid};
use std::fmt;

/// Errors returned by a [`ProcSource`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The process or task does not exist (it may have exited between the
    /// task-list read and the per-task read — a normal race the monitor
    /// must tolerate, per §3.1.1 of the paper).
    NotFound,
    /// An I/O failure reading the backing store.
    Io(String),
    /// The record existed but could not be parsed.
    Malformed(String),
    /// The record exists but the caller may not read it (`EPERM` /
    /// `EACCES`) — e.g. a setuid task inside the watched process. The
    /// monitor must skip-with-count, never abort the scan.
    Denied(String),
}

/// The kind of a [`SourceError`], with the payload stripped — used as an
/// index by fault accounting (the monitor's `HealthLedger` and the fault
/// injector's log reconcile per kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceErrorKind {
    /// [`SourceError::NotFound`].
    NotFound,
    /// [`SourceError::Io`].
    Io,
    /// [`SourceError::Malformed`].
    Malformed,
    /// [`SourceError::Denied`].
    Denied,
}

impl SourceErrorKind {
    /// All kinds, in stable order (the index order used by counters).
    pub const ALL: [SourceErrorKind; 4] = [
        SourceErrorKind::NotFound,
        SourceErrorKind::Io,
        SourceErrorKind::Malformed,
        SourceErrorKind::Denied,
    ];

    /// Stable dense index, matching [`Self::ALL`].
    pub fn index(self) -> usize {
        match self {
            SourceErrorKind::NotFound => 0,
            SourceErrorKind::Io => 1,
            SourceErrorKind::Malformed => 2,
            SourceErrorKind::Denied => 3,
        }
    }

    /// Short label for reports and CSV.
    pub fn label(self) -> &'static str {
        match self {
            SourceErrorKind::NotFound => "not_found",
            SourceErrorKind::Io => "io",
            SourceErrorKind::Malformed => "malformed",
            SourceErrorKind::Denied => "denied",
        }
    }
}

impl SourceError {
    /// The payload-free kind of this error.
    pub fn kind(&self) -> SourceErrorKind {
        match self {
            SourceError::NotFound => SourceErrorKind::NotFound,
            SourceError::Io(_) => SourceErrorKind::Io,
            SourceError::Malformed(_) => SourceErrorKind::Malformed,
            SourceError::Denied(_) => SourceErrorKind::Denied,
        }
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::NotFound => write!(f, "no such process or task"),
            SourceError::Io(e) => write!(f, "procfs I/O error: {e}"),
            SourceError::Malformed(e) => write!(f, "malformed procfs record: {e}"),
            SourceError::Denied(e) => write!(f, "procfs access denied: {e}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// Result alias for source operations.
pub type SourceResult<T> = Result<T, SourceError>;

/// Read access to `/proc`-shaped system and per-task records.
pub trait ProcSource {
    /// Reads `/proc/stat` — system-wide and per-CPU jiffy counters.
    fn system_stat(&self) -> SourceResult<SystemStat>;

    /// Reads `/proc/meminfo`.
    fn meminfo(&self) -> SourceResult<MemInfo>;

    /// Lists the LWP ids under `/proc/<pid>/task`, ascending.
    ///
    /// This is the thread-discovery mechanism §3.1.1 of the paper prefers
    /// over intercepting `pthread_create`.
    fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>>;

    /// Reads `/proc/<pid>/task/<tid>/stat`.
    fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat>;

    /// Reads `/proc/<pid>/task/<tid>/status`.
    fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus>;

    /// Reads `/proc/<pid>/task/<tid>/schedstat` — on-CPU time, runqueue
    /// wait time, and timeslices. Not every kernel exposes it
    /// (`CONFIG_SCHED_INFO`); the default reports it missing, and
    /// consumers must degrade gracefully.
    fn task_schedstat(&self, _pid: Pid, _tid: Tid) -> SourceResult<crate::types::SchedStat> {
        Err(SourceError::NotFound)
    }

    /// Reads `/proc/<pid>/status` (the process-level record; equivalent to
    /// the main thread's task status).
    fn process_status(&self, pid: Pid) -> SourceResult<TaskStatus> {
        self.task_status(pid, pid)
    }

    // ---- Buffer-reusing forms -------------------------------------------
    //
    // The monitor samples every watched thread every period; the `_into`
    // forms let it reuse one record per kind instead of allocating fresh
    // strings and vectors each read. Defaults delegate to the owning
    // reads, so wrappers (fault injectors, live backends without an
    // override) stay correct automatically. On error the contents of
    // `out` are unspecified.

    /// Reads `/proc/stat` into an existing record, reusing its per-CPU
    /// vector.
    fn system_stat_into(&self, out: &mut SystemStat) -> SourceResult<()> {
        *out = self.system_stat()?;
        Ok(())
    }

    /// Reads the LWP list into an existing vector.
    fn list_tasks_into(&self, pid: Pid, out: &mut Vec<Tid>) -> SourceResult<()> {
        *out = self.list_tasks(pid)?;
        Ok(())
    }

    /// Reads a task's `stat` into an existing record, reusing its `comm`
    /// buffer.
    fn task_stat_into(&self, pid: Pid, tid: Tid, out: &mut TaskStat) -> SourceResult<()> {
        *out = self.task_stat(pid, tid)?;
        Ok(())
    }

    /// Reads a task's `status` into an existing record, reusing its name
    /// buffer and affinity mask.
    fn task_status_into(&self, pid: Pid, tid: Tid, out: &mut TaskStatus) -> SourceResult<()> {
        *out = self.task_status(pid, tid)?;
        Ok(())
    }

    // ---- Raw-text (arena) forms -----------------------------------------
    //
    // The sampling round reads each task's text into its arena and
    // parses the span itself with the view parsers, so the source's
    // job shrinks to "get the bytes". The
    // defaults perform the typed buffer-reusing read and render it back
    // to kernel text: correct for every source, and it means wrappers
    // (fault injectors, adapters) inherit their typed overrides — and
    // any fault injection in them — without changes. Backends override
    // for speed: the live backend appends the file with one `read`
    // syscall, the simulator renders straight into the arena tail.

    /// Reads the raw text of `/proc/<pid>/task/<tid>/stat` — one line,
    /// trailing whitespace stripped — appending it to `arena`.
    fn task_stat_text(&self, pid: Pid, tid: Tid, arena: &mut ReadArena) -> SourceResult<ArenaSpan> {
        self.task_stat_into(pid, tid, &mut arena.stat_scratch)?;
        Ok(arena.render_stat_scratch())
    }

    /// Reads the raw text of `/proc/<pid>/task/<tid>/status` (the whole
    /// multi-line block), appending it to `arena`.
    fn task_status_text(
        &self,
        pid: Pid,
        tid: Tid,
        arena: &mut ReadArena,
    ) -> SourceResult<ArenaSpan> {
        self.task_status_into(pid, tid, &mut arena.status_scratch)?;
        Ok(arena.render_status_scratch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert_eq!(SourceError::NotFound.to_string(), "no such process or task");
        assert!(SourceError::Io("x".into()).to_string().contains("x"));
        assert!(SourceError::Malformed("y".into()).to_string().contains("y"));
        assert!(SourceError::Denied("z".into())
            .to_string()
            .contains("denied"));
    }

    #[test]
    fn kinds_are_stable() {
        for (i, k) in SourceErrorKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(SourceError::NotFound.kind(), SourceErrorKind::NotFound);
        assert_eq!(SourceError::Io("x".into()).kind(), SourceErrorKind::Io);
        assert_eq!(
            SourceError::Malformed("y".into()).kind(),
            SourceErrorKind::Malformed
        );
        assert_eq!(
            SourceError::Denied("z".into()).kind(),
            SourceErrorKind::Denied
        );
        assert_eq!(SourceErrorKind::Io.label(), "io");
    }
}
