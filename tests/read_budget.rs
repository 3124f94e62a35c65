//! The sampling round's read budget, counted at the `ProcSource`
//! boundary: what one `Monitor::sample` may ask of `/proc`.
//!
//! Per round: one `/proc/stat`, one `meminfo`, one task listing per
//! live watch; per planned task one `schedstat`, then at most one
//! `stat` and one `status` — none on a delta hit, none for a shed
//! worker, nothing at all for a watch that is gone. Held on the
//! simulated substrate and on this process's own live `/proc`.
//!
//! On the live `/proc` the budget is kept a second time, in syscalls,
//! from `LinuxProc`'s own counters: a file is opened in the round its
//! task is first read and never again while the task lives. For the
//! benchmark's 65 tasks that is 197 reads per round with delta sampling
//! off and 69 with it on, as before, and 197 opens in round 1, 0 after.
//! The listing is one of the 197 / 69 calls in every round; in syscalls
//! it is a walk of the task directory (`LinuxProc::listings`) only in a
//! round whose `/proc/stat` or whose directory `nlink` says the thread
//! set may have changed, and one `stat` of the directory otherwise.

mod live_threads;

use live_threads::parked_thread;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::os::unix::fs::MetadataExt;
use zerosum::core::{Monitor, ProcessInfo, ZeroSumConfig};
use zerosum::procfs::{
    ArenaSpan, LinuxProc, MemInfo, Pid, ProcSource, ReadArena, SchedStat, SourceResult, SystemStat,
    TaskStat, TaskStatus, Tid,
};
use zerosum::sched::{Behavior, NodeSim, SchedParams, SimProcSource};
use zerosum::topology::{presets, CpuSet};

/// Calls seen since the last [`Counting::take`].
#[derive(Debug, Default, PartialEq)]
struct Calls {
    system_stat: u32,
    meminfo: u32,
    /// Listings per pid.
    lists: BTreeMap<Pid, u32>,
    /// `[schedstat, stat, status]` reads per tid, every read form
    /// (owning, `_into`, raw text) counted alike.
    tasks: BTreeMap<Tid, [u32; 3]>,
    /// Children asked for, per pid, and the tasks the last ask named.
    children: BTreeMap<Pid, (u32, Vec<Tid>)>,
}

/// Forwards every call to `inner` under the same name and counts it.
struct Counting<'a> {
    inner: &'a dyn ProcSource,
    calls: RefCell<Calls>,
    /// Run once, right after the next task listing returns.
    after_listing: RefCell<Option<Box<dyn FnOnce() + 'a>>>,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn ProcSource) -> Self {
        Counting {
            inner,
            calls: RefCell::default(),
            after_listing: RefCell::default(),
        }
    }

    fn take(&self) -> Calls {
        self.calls.take()
    }

    fn task(&self, tid: Tid, file: usize) {
        self.calls.borrow_mut().tasks.entry(tid).or_default()[file] += 1;
    }

    fn list(&self, pid: Pid) {
        *self.calls.borrow_mut().lists.entry(pid).or_default() += 1;
    }
}

impl ProcSource for Counting<'_> {
    fn system_stat(&self) -> SourceResult<SystemStat> {
        self.calls.borrow_mut().system_stat += 1;
        self.inner.system_stat()
    }
    fn system_stat_into(&self, out: &mut SystemStat) -> SourceResult<()> {
        self.calls.borrow_mut().system_stat += 1;
        self.inner.system_stat_into(out)
    }
    fn meminfo(&self) -> SourceResult<MemInfo> {
        self.calls.borrow_mut().meminfo += 1;
        self.inner.meminfo()
    }
    fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
        self.list(pid);
        self.inner.list_tasks(pid)
    }
    fn list_tasks_into(&self, pid: Pid, out: &mut Vec<Tid>) -> SourceResult<()> {
        self.list(pid);
        let listed = self.inner.list_tasks_into(pid, out);
        if let Some(hook) = self.after_listing.take() {
            hook();
        }
        listed
    }
    fn list_children_into(&self, pid: Pid, tids: &[Tid], out: &mut Vec<Pid>) -> SourceResult<()> {
        let mut calls = self.calls.borrow_mut();
        let asked = calls.children.entry(pid).or_default();
        (asked.0, asked.1) = (asked.0 + 1, tids.to_vec());
        drop(calls);
        self.inner.list_children_into(pid, tids, out)
    }
    fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
        self.task(tid, 0);
        self.inner.task_schedstat(pid, tid)
    }
    fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
        self.task(tid, 1);
        self.inner.task_stat(pid, tid)
    }
    fn task_stat_into(&self, pid: Pid, tid: Tid, out: &mut TaskStat) -> SourceResult<()> {
        self.task(tid, 1);
        self.inner.task_stat_into(pid, tid, out)
    }
    fn task_stat_text(&self, pid: Pid, tid: Tid, arena: &mut ReadArena) -> SourceResult<ArenaSpan> {
        self.task(tid, 1);
        self.inner.task_stat_text(pid, tid, arena)
    }
    fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
        self.task(tid, 2);
        self.inner.task_status(pid, tid)
    }
    fn task_status_into(&self, pid: Pid, tid: Tid, out: &mut TaskStatus) -> SourceResult<()> {
        self.task(tid, 2);
        self.inner.task_status_into(pid, tid, out)
    }
    fn task_status_text(
        &self,
        pid: Pid,
        tid: Tid,
        arena: &mut ReadArena,
    ) -> SourceResult<ArenaSpan> {
        self.task(tid, 2);
        self.inner.task_status_text(pid, tid, arena)
    }
}

fn watch(mon: &mut Monitor, pid: Pid) {
    mon.watch_process(ProcessInfo {
        pid,
        rank: None,
        hostname: "budget".into(),
        gpus: vec![],
        cpus_allowed: Default::default(),
    });
}

/// What every round owes, whatever it sampled: the node reads once,
/// one listing per watch in `live` and none for any other, and per task
/// a `schedstat` before — and at most one of — `stat` and `status`.
fn assert_round_budget(calls: &Calls, live: &[Pid]) {
    assert_eq!((calls.system_stat, calls.meminfo), (1, 1), "{calls:?}");
    let listed: Vec<(Pid, u32)> = calls.lists.iter().map(|(&p, &n)| (p, n)).collect();
    let want: Vec<(Pid, u32)> = live.iter().map(|&p| (p, 1)).collect();
    assert_eq!(listed, want, "one listing per live watch");
    for (tid, &[schedstat, stat, status]) in &calls.tasks {
        assert_eq!(schedstat, 1, "tid {tid}: one schedstat per planned task");
        assert!(stat <= 1 && status <= stat, "tid {tid}: {calls:?}");
    }
}

#[test]
fn sim_round_reads_stay_within_budget() {
    let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
    let busy = || Behavior::FiniteCompute {
        remaining_us: 60_000_000,
        chunk_us: 10_000,
    };
    let mut pids = Vec::new();
    for cpus in [[0u32, 1], [2, 3]] {
        let pid = sim.spawn_process("rank", CpuSet::from_indices(cpus), 4_096, busy());
        sim.spawn_task(pid, "worker", None, busy(), false);
        sim.spawn_task(pid, "parked", None, Behavior::Sleeper, false);
        pids.push(pid);
    }
    let mut mon = Monitor::new(ZeroSumConfig::default());
    assert!(mon.config.delta_sampling);
    for &pid in &pids {
        watch(&mut mon, pid);
    }
    watch(&mut mon, 99_999);
    let mut round = |mon: &mut Monitor, t_s: f64| {
        sim.run_for(200_000);
        let src = SimProcSource::new(&sim);
        let counting = Counting::new(&src);
        mon.sample(t_s, &counting);
        counting.take()
    };

    // Round 1: everything is new, so everything is read in full — and
    // the unknown pid is listed once, found missing, and dropped.
    let calls = round(&mut mon, 1.0);
    assert_round_budget(&calls, &[pids[0], pids[1], 99_999]);
    assert_eq!(calls.tasks.len(), 6);
    assert!(calls.tasks.values().all(|reads| *reads == [1, 1, 1]));
    assert!(mon.process(99_999).unwrap().gone);

    // Round 2: the parked workers never ran, so their schedstat is
    // unchanged and that is all that is read of them.
    let calls = round(&mut mon, 2.0);
    assert_round_budget(&calls, &pids);
    let gated = calls.tasks.values().filter(|r| **r == [1, 0, 0]).count();
    assert_eq!(gated, 2, "{calls:?}");
    assert_eq!(mon.stats.delta_hits, 2);
    assert_eq!(calls.tasks.values().filter(|r| **r == [1, 1, 1]).count(), 4);

    // A shed round reads the main threads and nothing of the workers.
    mon.note_round_cost(2.0, 600_000);
    let calls = round(&mut mon, 3.0);
    assert_round_budget(&calls, &pids);
    assert_eq!(mon.governor.shed_rounds, 1);
    let read: Vec<Tid> = calls.tasks.keys().copied().collect();
    assert_eq!(read, pids, "only the main threads are planned");
    assert!(calls.tasks.values().all(|reads| *reads == [1, 1, 1]));

    // With the gate off every listed task is read in full again.
    mon.config.delta_sampling = false;
    mon.note_round_cost(3.0, 5_000);
    let calls = round(&mut mon, 4.0);
    assert_round_budget(&calls, &pids);
    assert_eq!(calls.tasks.len(), 6);
    assert!(calls.tasks.values().all(|reads| *reads == [1, 1, 1]));
    assert_eq!(mon.stats.errors, 0);
}

/// The live source and this process's pid, or `None`, said loudly.
fn live_source() -> Option<(LinuxProc, Pid)> {
    let src = LinuxProc::new();
    match src.self_pid().ok().filter(|&p| src.list_tasks(p).is_ok()) {
        Some(pid) => Some((src, pid)),
        None => {
            eprintln!("live read budget: SKIPPED (/proc/self/task is not readable)");
            None
        }
    }
}

#[test]
fn live_round_reads_stay_within_budget() {
    let Some((src, pid)) = live_source() else {
        return;
    };
    // Parked threads: listed every round, never dispatched in between.
    let parked: Vec<_> = (0..3).map(|_| parked_thread()).collect();
    let mut mon = Monitor::new(ZeroSumConfig::default());
    watch(&mut mon, pid);
    let counting = Counting::new(&src);
    let mut known: Vec<Tid> = Vec::new();
    let mut round = |mon: &mut Monitor, t_s: f64| {
        let (opens, reopens) = (src.opens(), src.reopens());
        mon.sample(t_s, &counting);
        let calls = counting.take();
        assert_round_budget(&calls, &[pid]);
        // The test harness has threads of its own; ours are among them.
        assert!(calls.tasks.len() > parked.len(), "{calls:?}");
        // In syscalls: /proc/stat and meminfo are opened in the first
        // round, a task's files in the round it is first read (three,
        // short of a sibling test's thread exiting under the reads),
        // and nothing ever again but the path of a handle that said
        // ESRCH — unless this harness's fd table had no room, which
        // the source counts.
        let first_reads: u32 = calls
            .tasks
            .iter()
            .filter(|(tid, _)| !known.contains(tid))
            .map(|(_, reads)| reads.iter().sum::<u32>())
            .sum();
        let node = if known.is_empty() { 2 } else { 0 };
        let opened = src.opens() - opens - (src.reopens() - reopens);
        if src.retentions_refused() == 0 {
            assert_eq!(opened, u64::from(first_reads) + node, "{calls:?}");
        } else {
            eprintln!("live syscall budget: SKIPPED (no room in this fd table)");
        }
        known.extend(calls.tasks.keys());
        calls
    };
    for t_s in 1..=3u32 {
        let calls = round(&mut mon, f64::from(t_s));
        assert_eq!(
            calls.tasks.get(&pid),
            Some(&[1, 1, 1]),
            "main is always fresh"
        );
    }
    // Where the kernel exposes schedstat the gate spares the parked
    // threads' files; where it does not, every task is read in full.
    let has_schedstat = src.task_schedstat(pid, pid).is_ok();
    assert_eq!(mon.stats.delta_hits > 0, has_schedstat);
    // With the gate off every task is read in full, through the same
    // handles.
    mon.config.delta_sampling = false;
    for t_s in 4..=5u32 {
        let calls = round(&mut mon, f64::from(t_s));
        for (tid, ..) in &parked {
            assert_eq!(calls.tasks.get(tid), Some(&[1, 1, 1]));
        }
    }
    assert_eq!(mon.stats.errors, 0);
    assert_eq!(src.cache_drops(), 0);
    for (_, go, thread) in parked {
        drop(go);
        thread.join().unwrap();
    }
}

#[test]
fn a_round_whose_evidence_held_walks_no_directory() {
    let Some((src, pid)) = live_source() else {
        return;
    };
    // The evidence, taken by the test itself around two rounds: tasks
    // born on the node, and the tasks of this process (sibling tests
    // start and end threads here).
    let evidence = || {
        let forks = LinuxProc::with_root("/proc").system_stat().ok()?.processes;
        let tasks = std::fs::read_dir("/proc/self/task").ok()?.count();
        Some((forks, tasks)).filter(|_| forks > 0)
    };
    let nlink = std::fs::metadata("/proc/self/task").map_or(0, |m| m.nlink());
    if evidence().is_none_or(|(_, tasks)| nlink != tasks as u64 + 2) {
        eprintln!("live listing budget: SKIPPED (no `processes` line, or no directory nlink)");
        return;
    }
    let parked = parked_thread();
    let mut mon = Monitor::new(ZeroSumConfig::default());
    watch(&mut mon, pid);
    let counting = Counting::new(&src);
    let mut quiet_pairs = 0;
    for t_s in 0..400u32 {
        let before = evidence();
        mon.sample(f64::from(t_s), &counting);
        let (walked, opened) = (src.listings(), src.opens());
        mon.sample(f64::from(t_s) + 0.5, &counting);
        let calls = counting.take();
        // At the `ProcSource` boundary the listing is asked for as ever.
        assert_eq!(calls.lists.get(&pid), Some(&2), "{calls:?}");
        assert_eq!(calls.tasks.get(&parked.0).map(|r| r[0]), Some(2));
        // Nothing born and nothing gone from before the first round to
        // after the second: the second had no reason to walk.
        if before == evidence() {
            assert_eq!(src.listings(), walked, "round {t_s}b walked unprompted");
            if src.retentions_refused() == 0 {
                assert_eq!(src.opens(), opened, "round {t_s}b opened a file");
            }
            quiet_pairs += 1;
        }
    }
    assert!(quiet_pairs > 0, "no two consecutive quiet rounds in 400");
    assert_eq!(mon.stats.errors, 0);
    drop(parked.1);
    parked.2.join().unwrap();
}

#[test]
fn a_thread_that_exits_under_its_held_handles_is_a_departure_not_an_error() {
    let Some((src, pid)) = live_source() else {
        return;
    };
    let (tid, go, thread) = parked_thread();
    let mut mon = Monitor::new(ZeroSumConfig::default());
    watch(&mut mon, pid);
    let counting = Counting::new(&src);
    mon.sample(1.0, &counting);
    assert_eq!(counting.take().tasks.get(&tid), Some(&[1, 1, 1]));
    // The thread goes after the listing that still names it (§3.1.1's
    // race, made certain): its schedstat handle answers ESRCH and the
    // path is gone, which could also be a kernel without schedstat, so
    // `stat` is asked, says the same, and settles it.
    *counting.after_listing.borrow_mut() = Some(Box::new(move || {
        drop(go);
        thread.join().unwrap();
        // `join` can return a moment before the kernel unhashes the task.
        let dir = format!("/proc/self/task/{tid}");
        while std::path::Path::new(&dir).exists() {
            std::thread::yield_now();
        }
    }));
    let vanished = mon.stats.vanished;
    mon.sample(2.0, &counting);
    assert_eq!(counting.take().tasks.get(&tid), Some(&[1, 1, 0]));
    // (Sibling tests' threads live in this process too, and may leave
    // in the same round.)
    assert!(mon.stats.vanished > vanished);
    assert_eq!(mon.stats.errors, 0);
    if src.retentions_refused() == 0 {
        assert!(src.reopens() >= 2, "both held handles said ESRCH");
    }
    mon.sample(3.0, &counting);
    assert!(!counting.take().tasks.contains_key(&tid));
    assert_eq!(mon.stats.errors, 0);
}

#[test]
fn children_are_walked_only_in_a_round_after_a_birth() {
    let Some((src, pid)) = live_source() else {
        return;
    };
    let evidence = || {
        let forks = LinuxProc::with_root("/proc").system_stat().ok()?.processes;
        let tasks = std::fs::read_dir("/proc/self/task").ok()?.count();
        Some((forks, tasks)).filter(|_| forks > 0)
    };
    let nlink = std::fs::metadata("/proc/self/task").map_or(0, |m| m.nlink());
    let children = format!("/proc/{pid}/task/{pid}/children");
    if evidence().is_none_or(|(_, tasks)| nlink != tasks as u64 + 2)
        || !std::path::Path::new(&children).exists()
    {
        eprintln!("live children budget: SKIPPED (no `processes` line, no directory nlink, or no {children})");
        return;
    }
    let mut mon = Monitor::new(ZeroSumConfig::default());
    watch(&mut mon, pid);
    let counting = Counting::new(&src);
    let mut quiet_pairs = 0;
    for t_s in 0..400u32 {
        let before = evidence();
        mon.sample(f64::from(t_s), &counting);
        let walked = src.listings();
        mon.sample(f64::from(t_s) + 0.5, &counting);
        let calls = counting.take();
        // At the `ProcSource` boundary: asked once a round, after the
        // listing, for the tasks it listed.
        assert_eq!(calls.children.get(&pid).map(|c| c.0), Some(2), "{calls:?}");
        assert_eq!(calls.lists.get(&pid), Some(&2), "{calls:?}");
        // Nothing born from before the first round to after the second:
        // the second read no `children` file and walked nothing.
        if before == evidence() {
            assert_eq!(src.listings(), walked, "round {t_s}b walked unprompted");
            quiet_pairs += 1;
        }
    }
    assert!(quiet_pairs > 0, "no two consecutive quiet rounds in 400");
    // A thread is born: the next round walks the task directory and the
    // `children` files once each — one file per listed task.
    let walked = src.listings();
    let parked = parked_thread();
    mon.sample(500.0, &counting);
    let calls = counting.take();
    let (asked, tids) = calls.children.get(&pid).cloned().unwrap_or_default();
    assert_eq!(asked, 1, "{calls:?}");
    assert!(tids.contains(&parked.0), "{calls:?}");
    assert!(
        tids.windows(2).all(|w| w[0] < w[1]),
        "each task once: {tids:?}"
    );
    assert!(src.listings() - walked <= 2, "one walk of each kind");
    assert_eq!(mon.processes().len(), 1, "this process has no children");
    assert_eq!(mon.stats.errors, 0);
    drop(parked.1);
    parked.2.join().unwrap();
}
