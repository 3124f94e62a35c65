//! The simulated `/proc` backend.
//!
//! [`SimProcSource`] implements [`zerosum_proc::ProcSource`] over a
//! [`NodeSim`]. To keep the simulation honest it does not hand structured
//! data to the monitor directly: every record is first *rendered to the
//! kernel's text format* and then re-parsed with the same parsers the
//! live-Linux backend uses. The monitor therefore exercises the identical
//! code path on both backends, and the jiffy quantization that makes
//! Figure 6 noisy happens exactly where it does on a real system.

use crate::node::NodeSim;
use crate::task::RunState;
use std::cell::RefCell;
use zerosum_proc::{
    format, parse, ArenaSpan, CpuTimes, MemInfo, Pid, ReadArena, SchedStat, SourceError,
    SourceResult, SystemStat, TaskStat, TaskStatus, Tid,
};

/// Microseconds per jiffy at `USER_HZ` = 100.
const US_PER_JIFFY: u64 = 1_000_000 / zerosum_proc::USER_HZ;

/// The render scratch of a [`SimProcSource`] — one text buffer, one
/// record per kind — reused across reads: the monitor samples hundreds
/// of records per period, and rendering each into a fresh `String`
/// dominated the sampling cost. A driver that builds a view per round
/// (the sim is only borrowed between advances) hands the scratch from
/// one view to the next, so rounds after the first allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    text: String,
    stat: TaskStat,
    status: TaskStatus,
}

/// A borrowed `/proc` view of a [`NodeSim`].
pub struct SimProcSource<'a> {
    sim: &'a NodeSim,
    scratch: RefCell<SimScratch>,
}

/// Bytes one `cpu` row of `/proc/stat` comes to with ten-digit jiffy
/// counters, and the non-cpu tail of the file.
const STAT_ROW_BYTES: usize = 48;

impl<'a> SimProcSource<'a> {
    /// Creates the view.
    pub fn new(sim: &'a NodeSim) -> Self {
        Self::with_scratch(sim, SimScratch::default())
    }

    /// Creates the view over the scratch of an earlier one
    /// ([`SimProcSource::into_scratch`]). The text buffer is sized here,
    /// once, for the largest record it will hold — `/proc/stat`, a row
    /// per CPU — instead of doubling its way up to it inside a round.
    pub fn with_scratch(sim: &'a NodeSim, mut scratch: SimScratch) -> Self {
        if scratch.text.capacity() == 0 {
            let rows = sim.cpu_times_iter().count() + 2;
            scratch.text.reserve(STAT_ROW_BYTES * rows);
            // The kernel's TASK_COMM_LEN.
            scratch.stat.comm.reserve(16);
            scratch.status.name.reserve(16);
        }
        SimProcSource {
            sim,
            scratch: RefCell::new(scratch),
        }
    }

    /// Gives the scratch back, for the next view.
    pub fn into_scratch(self) -> SimScratch {
        self.scratch.into_inner()
    }

    /// Renders `/proc/<pid>/task/<tid>/stat` through the record `st`,
    /// appending to `text` (the arena path batches many records in one
    /// buffer; one-record callers clear it first).
    fn render_task_stat(
        &self,
        pid: Pid,
        tid: Tid,
        st: &mut TaskStat,
        text: &mut String,
    ) -> SourceResult<()> {
        let task = self
            .sim
            .task_by_tid(tid)
            .filter(|t| t.pid == pid)
            .ok_or(SourceError::NotFound)?;
        let process = self.sim.process(pid).ok_or(SourceError::NotFound)?;
        let now = self.sim.now_us();
        // Minor faults: the main thread performs the first-touch faults of
        // the memory ramp; every thread adds an allocator trickle
        // proportional to its CPU time.
        let ramp_faults = if tid == pid {
            process.memory.minor_faults(now)
        } else {
            0
        };
        let trickle = task.cpu_us() / 20_000;
        st.tid = tid;
        // Kernel truncates comm to 15 bytes.
        st.comm.clear();
        st.comm.extend(task.name.chars().take(15));
        st.state = task.state.proc_state();
        st.minflt = ramp_faults + trickle;
        st.majflt = 0;
        st.utime = task.counters.utime_us / US_PER_JIFFY;
        st.stime = task.counters.stime_us / US_PER_JIFFY;
        st.nice = 0;
        st.num_threads = process.tasks.len() as u32;
        st.processor = task.last_cpu;
        st.nswap = 0;
        st.starttime = task.spawned_at_us / US_PER_JIFFY;
        format::write_task_stat(st, text);
        Ok(())
    }

    /// Renders `/proc/<pid>/task/<tid>/status` through the record `st`,
    /// appending to `text`.
    fn render_task_status(
        &self,
        pid: Pid,
        tid: Tid,
        st: &mut TaskStatus,
        text: &mut String,
    ) -> SourceResult<()> {
        let task = self
            .sim
            .task_by_tid(tid)
            .filter(|t| t.pid == pid)
            .ok_or(SourceError::NotFound)?;
        let process = self.sim.process(pid).ok_or(SourceError::NotFound)?;
        let now = self.sim.now_us();
        st.name.clear();
        st.name.extend(task.name.chars().take(15));
        st.tid = tid;
        st.tgid = pid;
        st.state = task.state.proc_state();
        st.vm_rss_kib = process.memory.rss_kib(now);
        st.vm_size_kib = process.memory.vm_size_kib;
        st.vm_hwm_kib = process.memory.hwm_kib(now);
        st.cpus_allowed.copy_from(&task.affinity);
        st.voluntary_ctxt_switches = task.counters.vcsw;
        st.nonvoluntary_ctxt_switches = task.counters.nvcsw;
        format::write_task_status(st, text);
        Ok(())
    }
}

fn malformed(e: impl std::fmt::Display) -> SourceError {
    SourceError::Malformed(e.to_string())
}

impl zerosum_proc::ProcSource for SimProcSource<'_> {
    fn system_stat(&self) -> SourceResult<SystemStat> {
        let mut out = SystemStat::default();
        self.system_stat_into(&mut out)?;
        Ok(out)
    }

    fn system_stat_into(&self, out: &mut SystemStat) -> SourceResult<()> {
        use std::fmt::Write as _;
        let jiffies = |user_us: u64, system_us: u64, idle_us: u64| CpuTimes {
            user: user_us / US_PER_JIFFY,
            system: system_us / US_PER_JIFFY,
            idle: idle_us / US_PER_JIFFY,
            ..Default::default()
        };
        let text = &mut self.scratch.borrow_mut().text;
        text.clear();
        // The aggregate row leads the file, so total first (one pass),
        // then the per-CPU rows (second pass) — both straight into the
        // render buffer. The text must match `format::write_system_stat`
        // byte for byte; `system_stat_text_matches_format` pins that.
        let mut total = CpuTimes::default();
        for (_, user_us, system_us, idle_us) in self.sim.cpu_times_iter() {
            total = total.add(&jiffies(user_us, system_us, idle_us));
        }
        format::write_cpu_row(text, None, &total);
        for (os, user_us, system_us, idle_us) in self.sim.cpu_times_iter() {
            format::write_cpu_row(text, Some(os), &jiffies(user_us, system_us, idle_us));
        }
        let _ = writeln!(text, "ctxt {}", self.sim.ctxt_total());
        let _ = writeln!(text, "btime 1700000000");
        let _ = writeln!(text, "processes 0");
        parse::parse_system_stat_into(text.as_str(), out).map_err(malformed)
    }

    fn meminfo(&self) -> SourceResult<MemInfo> {
        let mi = self.sim.memory.meminfo(self.sim.processes_rss_kib());
        let text = &mut self.scratch.borrow_mut().text;
        text.clear();
        format::write_meminfo(&mi, text);
        parse::parse_meminfo(text.as_str()).map_err(malformed)
    }

    fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
        let mut tids = Vec::new();
        self.list_tasks_into(pid, &mut tids)?;
        Ok(tids)
    }

    fn list_tasks_into(&self, pid: Pid, out: &mut Vec<Tid>) -> SourceResult<()> {
        let process = self.sim.process(pid).ok_or(SourceError::NotFound)?;
        out.clear();
        out.extend(
            process
                .tasks
                .iter()
                .filter_map(|&id| self.sim.task(id).map(|t| t.tid))
                // Exited threads disappear from /proc/<pid>/task.
                .filter(|&tid| {
                    self.sim
                        .task_by_tid(tid)
                        .map(|t| t.state != RunState::Exited)
                        .unwrap_or(false)
                }),
        );
        out.sort_unstable();
        Ok(())
    }

    fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
        let mut out = TaskStat::default();
        self.task_stat_into(pid, tid, &mut out)?;
        Ok(out)
    }

    fn task_stat_into(&self, pid: Pid, tid: Tid, out: &mut TaskStat) -> SourceResult<()> {
        let SimScratch { text, stat, .. } = &mut *self.scratch.borrow_mut();
        text.clear();
        self.render_task_stat(pid, tid, stat, text)?;
        parse::parse_task_stat_into(text.as_str(), out).map_err(malformed)
    }

    fn task_stat_text(&self, pid: Pid, tid: Tid, arena: &mut ReadArena) -> SourceResult<ArenaSpan> {
        let stat = &mut self.scratch.borrow_mut().stat;
        arena.try_append_with(|text| self.render_task_stat(pid, tid, stat, text))
    }

    fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
        let mut out = TaskStatus::default();
        self.task_status_into(pid, tid, &mut out)?;
        Ok(out)
    }

    fn task_status_into(&self, pid: Pid, tid: Tid, out: &mut TaskStatus) -> SourceResult<()> {
        let SimScratch { text, status, .. } = &mut *self.scratch.borrow_mut();
        text.clear();
        self.render_task_status(pid, tid, status, text)?;
        parse::parse_task_status_into(text.as_str(), out).map_err(malformed)
    }

    fn task_status_text(
        &self,
        pid: Pid,
        tid: Tid,
        arena: &mut ReadArena,
    ) -> SourceResult<ArenaSpan> {
        let status = &mut self.scratch.borrow_mut().status;
        arena.try_append_with(|text| self.render_task_status(pid, tid, status, text))
    }

    fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
        let task = self
            .sim
            .task_by_tid(tid)
            .filter(|t| t.pid == pid)
            .ok_or(SourceError::NotFound)?;
        let ss = SchedStat {
            run_ns: task.cpu_us() * 1_000,
            wait_ns: task.counters.wait_us * 1_000,
            timeslices: task.counters.dispatches,
        };
        let text = &mut self.scratch.borrow_mut().text;
        text.clear();
        format::write_schedstat(&ss, text);
        parse::parse_schedstat(text.as_str()).map_err(malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Behavior;
    use crate::params::SchedParams;
    use zerosum_proc::{ProcSource, TaskState};
    use zerosum_topology::{presets, CpuSet};

    fn sim_with_app() -> (NodeSim, Pid) {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let pid = sim.spawn_process(
            "testapp",
            CpuSet::from_indices([0u32, 1]),
            4096,
            Behavior::FiniteCompute {
                remaining_us: 500_000,
                chunk_us: 10_000,
            },
        );
        sim.spawn_task(
            pid,
            "worker",
            None,
            Behavior::FiniteCompute {
                remaining_us: 500_000,
                chunk_us: 10_000,
            },
            false,
        );
        sim.run_for(200_000);
        (sim, pid)
    }

    #[test]
    fn system_stat_jiffies_sum_to_elapsed() {
        let (sim, _) = sim_with_app();
        let src = SimProcSource::new(&sim);
        let stat = src.system_stat().unwrap();
        assert_eq!(stat.cpus.len(), 8);
        // Each CPU accounts 200 ms = 20 jiffies.
        for (os, t) in &stat.cpus {
            assert_eq!(t.total(), 20, "cpu {os}");
        }
        // Two busy CPUs: user time present.
        assert!(stat.total.user >= 30);
    }

    #[test]
    fn list_tasks_excludes_exited() {
        let (mut sim, pid) = sim_with_app();
        let tids = SimProcSource::new(&sim).list_tasks(pid).unwrap();
        assert_eq!(tids.len(), 2);
        sim.run_until_apps_done(10_000, 10_000_000).unwrap();
        let tids = SimProcSource::new(&sim).list_tasks(pid).unwrap();
        assert!(tids.is_empty());
    }

    #[test]
    fn task_stat_reports_jiffies_and_processor() {
        let (sim, pid) = sim_with_app();
        let src = SimProcSource::new(&sim);
        let stat = src.task_stat(pid, pid).unwrap();
        assert_eq!(stat.tid, pid);
        assert_eq!(stat.comm, "testapp");
        assert_eq!(stat.state, TaskState::Running);
        // 200 ms of CPU-bound work ⇒ ~20 jiffies of utime.
        assert!((15..=21).contains(&stat.utime), "utime {}", stat.utime);
        assert!(stat.processor <= 1);
        assert_eq!(stat.num_threads, 2);
    }

    #[test]
    fn task_status_reports_affinity_and_rss() {
        let (sim, pid) = sim_with_app();
        let src = SimProcSource::new(&sim);
        let st = src.task_status(pid, pid).unwrap();
        assert_eq!(st.tgid, pid);
        assert_eq!(st.cpus_allowed.to_list_string(), "0-1");
        assert!(st.vm_rss_kib > 0);
    }

    #[test]
    fn schedstat_exposes_wait_time() {
        // Two busy tasks on one CPU: both accrue runqueue wait.
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let pid = sim.spawn_process(
            "w",
            CpuSet::single(0),
            64,
            Behavior::FiniteCompute {
                remaining_us: 200_000,
                chunk_us: 10_000,
            },
        );
        sim.spawn_task(
            pid,
            "w2",
            None,
            Behavior::FiniteCompute {
                remaining_us: 200_000,
                chunk_us: 10_000,
            },
            false,
        );
        sim.run_for(200_000);
        let src = SimProcSource::new(&sim);
        let ss = src.task_schedstat(pid, pid).unwrap();
        assert!(ss.run_ns > 0);
        assert!(ss.wait_ns > 10_000_000, "wait {} ns", ss.wait_ns);
        assert!(ss.timeslices >= 2);
        assert!(matches!(
            src.task_schedstat(pid, 999_999),
            Err(SourceError::NotFound)
        ));
    }

    #[test]
    fn unknown_ids_are_not_found() {
        let (sim, pid) = sim_with_app();
        let src = SimProcSource::new(&sim);
        assert!(matches!(src.list_tasks(99_999), Err(SourceError::NotFound)));
        assert!(matches!(
            src.task_stat(pid, 99_999),
            Err(SourceError::NotFound)
        ));
        // A valid tid under the wrong pid is also NotFound.
        assert!(matches!(
            src.task_stat(99_999, pid),
            Err(SourceError::NotFound)
        ));
    }

    #[test]
    fn system_stat_text_matches_format() {
        // The streamed render in `system_stat_into` must agree with the
        // canonical `format::write_system_stat` on the parsed record.
        let (sim, _) = sim_with_app();
        let src = SimProcSource::new(&sim);
        let stat = src.system_stat().unwrap();
        let canonical = format::format_system_stat(&stat);
        let reparsed = parse::parse_system_stat(&canonical).unwrap();
        assert_eq!(reparsed, stat);
    }

    #[test]
    fn into_forms_match_owning_forms() {
        let (sim, pid) = sim_with_app();
        let src = SimProcSource::new(&sim);
        let mut ss = SystemStat::default();
        src.system_stat_into(&mut ss).unwrap();
        assert_eq!(ss, src.system_stat().unwrap());
        let mut tids = vec![999];
        src.list_tasks_into(pid, &mut tids).unwrap();
        assert_eq!(tids, src.list_tasks(pid).unwrap());
        for &tid in &tids {
            // Pre-soiled records prove the reads fully overwrite them.
            let mut st = TaskStat {
                comm: "garbage".into(),
                utime: u64::MAX,
                ..Default::default()
            };
            src.task_stat_into(pid, tid, &mut st).unwrap();
            assert_eq!(st, src.task_stat(pid, tid).unwrap());
            let mut status = TaskStatus {
                name: "garbage".into(),
                cpus_allowed: CpuSet::range(0, 300),
                ..Default::default()
            };
            src.task_status_into(pid, tid, &mut status).unwrap();
            assert_eq!(status, src.task_status(pid, tid).unwrap());
        }
    }

    #[test]
    fn arena_text_path_matches_typed_reads() {
        let (sim, pid) = sim_with_app();
        let src = SimProcSource::new(&sim);
        let mut arena = ReadArena::new();
        for &tid in &src.list_tasks(pid).unwrap() {
            let span = src.task_stat_text(pid, tid, &mut arena).unwrap();
            let line = arena.get(span).unwrap();
            let stat = parse::parse_task_stat(line).unwrap();
            assert_eq!(stat, src.task_stat(pid, tid).unwrap());
            let span = src.task_status_text(pid, tid, &mut arena).unwrap();
            let st = parse::parse_task_status(arena.get(span).unwrap()).unwrap();
            assert_eq!(st, src.task_status(pid, tid).unwrap());
        }
        // A failed read rolls back: nothing leaks into the batch.
        let len = arena.len();
        assert!(matches!(
            src.task_stat_text(pid, 999_999, &mut arena),
            Err(SourceError::NotFound)
        ));
        assert_eq!(arena.len(), len);
    }

    #[test]
    fn node_sim_is_sync_for_shared_shard_sampling() {
        // The sharded monitor samples one NodeSim from several shard
        // threads under a read lock, so the sim's read path must be
        // free of interior mutability. SimProcSource itself is
        // deliberately not shared — each shard owns its own view (the
        // RefCell render scratch makes the view `!Sync`).
        fn assert_sync<T: Sync>() {}
        assert_sync::<NodeSim>();
    }

    #[test]
    fn meminfo_accounts_for_rss() {
        let (sim, _) = sim_with_app();
        let src = SimProcSource::new(&sim);
        let mi = src.meminfo().unwrap();
        assert_eq!(mi.mem_total_kib, 16 * 1024 * 1024);
        assert!(mi.mem_available_kib < mi.mem_total_kib);
    }
}
