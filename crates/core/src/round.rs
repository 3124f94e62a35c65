//! The sampling round: one observation of every watched process.
//!
//! [`Monitor::sample`] runs it on the thread that owns the monitor — the
//! paper's one asynchronous monitor thread per process (§3.1):
//!
//! 1. **Begin**: counters, the shed decision, node `/proc/stat`.
//! 2. **List**: every live watch reads `/proc/<pid>/task` into its own
//!    listing buffer before any task is read. A fault injector's
//!    schedule follows call order, and so does `zerosum chaos`'s output.
//! 3. **Per watch, in registration order**: the listing outcome; the
//!    join of listing and live table, which plans the reads from the
//!    rows (shed rounds keep only the main thread, quarantined tids are
//!    skipped, the delta gate's reference is attached where armed);
//!    then, per planned tid, `schedstat`, the delta compare and raw-text
//!    `stat`/`status` into the one [`ReadArena`], parsed into one reused
//!    record pair and folded into the tid's row at once — series, health
//!    accounting, the failure policy, RSS; last, the dead-track bound.
//! 4. **End**: `/proc/meminfo`.
//!
//! Steps 2 and 3 run under one panic boundary. A panic there (an
//! injected `FaultKind::Panic`, a poisoned substrate) is a recorded gap:
//! what was folded before it stays folded, and step 4 still runs. The
//! join makes no source call, so no read can panic with a table half
//! compacted; it plans first, then the reads run.

use crate::config::ZeroSumConfig;
use crate::health::HealthLedger;
use crate::monitor::{with_retry, Monitor, ProcessWatch};
use std::panic::AssertUnwindSafe;
use zerosum_proc::{
    parse, Pid, ProcSource, ReadArena, SchedStat, SourceError, TaskStat, TaskStatus, Tid,
};
use zerosum_topology::CpuSet;

/// The buffers every task is read into in turn: the arena its texts
/// pass through and the record pair they parse into. A fresh pair is
/// swapped into the task's row, so the steady state allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct TaskBuffers {
    arena: ReadArena,
    stat: TaskStat,
    status: TaskStatus,
}

/// What one planned read found.
enum Outcome {
    /// `stat` and `status` read and parsed into the buffers.
    Fresh(Option<SchedStat>),
    /// `schedstat` unchanged since the last fresh read: the thread never
    /// ran, and its last good pair stands in.
    Unchanged(SchedStat),
    /// `NotFound`: the thread exited between listing and read (§3.1.1).
    Vanished,
    /// Any other failure; the failure policy decides.
    Failed,
}

/// One round of `mon` at `t_s` through `src`: the body of
/// [`Monitor::sample`], whose supervisor catches a panic in steps 1
/// and 4.
pub(crate) fn round(mon: &mut Monitor, t_s: f64, src: &dyn ProcSource) {
    let shed = round_begin(mon, t_s, src);
    let watches = AssertUnwindSafe(|| sample_watches(mon, shed, t_s, src));
    if std::panic::catch_unwind(watches).is_err() {
        mon.note_gap(t_s);
    }
    round_end(mon, t_s, src);
}

/// Round prologue: counters, the shed decision, node `stat`.
fn round_begin(mon: &mut Monitor, t_s: f64, src: &dyn ProcSource) -> bool {
    mon.stats.rounds += 1;
    mon.last_t_s = t_s;
    // Deadline watchdog: after an overrun, this round sheds per-LWP
    // detail (worker stat/status reads) to get back under budget.
    let shed = std::mem::take(&mut mon.governor.shed_next);
    if shed {
        mon.governor.shed_rounds += 1;
    }
    match with_retry(&mut mon.node_health, &mut mon.pending_backoff_us, || {
        src.system_stat_into(&mut mon.scratch.sys)
    }) {
        Ok(()) => mon.hwt.observe(t_s, &mon.scratch.sys),
        Err(_) => mon.stats.errors += 1,
    }
    mon.scratch.watched_rss.clear();
    shed
}

/// Round epilogue: `meminfo`.
fn round_end(mon: &mut Monitor, t_s: f64, src: &dyn ProcSource) {
    match with_retry(&mut mon.node_health, &mut mon.pending_backoff_us, || {
        src.meminfo()
    }) {
        Ok(mi) => mon.mem.observe(t_s, &mi, &mon.scratch.watched_rss),
        Err(_) => mon.stats.errors += 1,
    }
}

/// Steps 2 and 3: every live watch listed, then each one planned, read
/// and folded. Every counter is a sum, so totals reconcile exactly
/// against a fault injector's log.
fn sample_watches(mon: &mut Monitor, shed: bool, t_s: f64, src: &dyn ProcSource) {
    let (delta_on, max_exited) = (mon.config.delta_sampling, mon.config.max_exited_tracks);
    let Monitor {
        config,
        processes,
        stats,
        node_health,
        pending_backoff_us,
        scratch,
        unfollowed,
        ..
    } = mon;
    // A watch adopted here lands at the end of `processes`, and so is
    // listed, and its own children asked for, in this same loop.
    let mut at = 0;
    while let Some(w) = processes.get_mut(at) {
        at += 1;
        if w.gone {
            continue;
        }
        let pid = w.info.pid;
        w.listed = with_retry(node_health, pending_backoff_us, || {
            src.list_tasks_into(pid, &mut w.listing)
        });
        if w.listed.is_err() || unfollowed.is_some() {
            continue;
        }
        match src.list_children_into(pid, &w.listing, &mut scratch.children) {
            Ok(()) => adopt(processes, pid, &scratch.children, config, src),
            // Gone since its listing: the next round says so.
            Err(SourceError::NotFound) => {}
            Err(e) => *unfollowed = Some(e),
        }
    }
    for w in processes.iter_mut().filter(|w| !w.gone) {
        match &w.listed {
            Ok(()) => {}
            Err(SourceError::NotFound) => {
                w.gone = true;
                stats.vanished += 1;
                continue;
            }
            Err(_) => {
                stats.errors += 1;
                continue;
            }
        }
        let pid = w.info.pid;
        let plan = &mut scratch.plan;
        plan.clear();
        w.join_listing(|row, ledger| {
            let tid = row.tid;
            if shed && tid != pid {
                // Shed round: drop per-LWP detail, keep per-HWT totals
                // (system stat), the main thread (RSS), and memory.
                return;
            }
            if row.should_skip(ledger) {
                // Quarantined after persistent failures; re-probed
                // after `REPROBE_AFTER` rounds.
                return;
            }
            // Unchanged schedstat ⇒ the thread was never dispatched
            // since the last fresh read ⇒ its `stat` and `status` are
            // bytewise unchanged; the fold reuses the last good pair.
            // The main thread is exempt: it carries the process-wide
            // RSS, which moves without the thread running.
            let armed = delta_on && tid != pid;
            plan.push((tid, row.delta_reference().filter(|_| armed)));
        });
        // Plan and rows are both in listing order: a tid's row is ahead
        // of the cursor, never behind it.
        let mut rows = w.health.rows.iter_mut();
        for &(tid, delta_prev) in plan.iter() {
            let outcome = read_task(
                src,
                (pid, tid),
                delta_prev,
                &mut w.health.ledger,
                pending_backoff_us,
                &mut scratch.task,
            );
            let Some(row) = rows.find(|r| r.tid == tid) else {
                continue;
            };
            let at = row.track;
            let (stat, status, ss) = match outcome {
                // Workers only: the plan never arms the gate for the
                // main thread, so the RSS tail below is not reached.
                Outcome::Unchanged(ss) => {
                    if let Some((stat, status)) = row.last_good() {
                        stats.delta_hits += 1;
                        if w.lwps.repeat_last(at, t_s, ss).is_none() {
                            row.track = w.lwps.observe_at(at, pid, t_s, stat, status, Some(ss));
                        }
                    }
                    continue;
                }
                Outcome::Vanished => {
                    stats.vanished += 1;
                    row.forget();
                    continue;
                }
                Outcome::Fresh(ss) => {
                    let TaskBuffers { stat, status, .. } = &mut scratch.task;
                    let (stat, status) = row.record_success(&mut w.health.ledger, stat, status, ss);
                    (stat, status, ss)
                }
                Outcome::Failed => {
                    stats.errors += 1;
                    // Degraded: repeat the last good sample so the time
                    // series stays continuous; the ledger flags the
                    // substitution. It reports no schedstat — a fresh
                    // schedstat against a stale stat would skew wait
                    // deltas.
                    match row.record_failure(&mut w.health.ledger) {
                        Some((stat, status)) => (stat, status, None),
                        None => continue,
                    }
                }
            };
            if tid == pid {
                // An adopted pid whose main thread's `starttime` moved: another process.
                let moved = |t: &crate::lwp::LwpTrack| t.starttime != stat.starttime;
                if w.adopted && w.lwps.track(pid).is_some_and(moved) {
                    w.gone = true;
                    stats.vanished += 1;
                    break;
                }
                if w.cpus_allowed.is_empty() {
                    w.cpus_allowed.copy_from(&status.cpus_allowed);
                }
                w.rss_series.push((t_s, status.vm_rss_kib));
                scratch.watched_rss.push((pid, status.vm_rss_kib));
            }
            row.track = w.lwps.observe_at(at, pid, t_s, stat, status, ss);
        }
        w.lwps.evict_dead(max_exited, &mut w.health.rows);
    }
    // An adopted watch that is gone is kept for the report until a live
    // watch holds its pid again (the kernel gave the pid to a new
    // process), and up to the dead-track bound, oldest out first.
    let left = |w: &ProcessWatch| w.gone && w.adopted;
    let mut gone = processes.iter().filter(|w| left(w)).count();
    let mut at = 0;
    while let Some(w) = processes.get(at) {
        let reused = |o: &ProcessWatch| o.info.pid == w.info.pid && !o.gone;
        if left(w) && (gone > max_exited || processes.iter().any(reused)) {
            gone -= 1;
            processes.remove(at);
        } else {
            at += 1;
        }
    }
}

/// Adopts each of `children`, found under the watch of `parent`, that no
/// live or registered watch holds: a watch of its own, `rank: None`, on
/// the parent's node, appended. A pid that a gone adopted watch holds
/// joins again only if its listing answers: a source may keep naming a
/// child that left (`LinuxProc` reuses its last `children` answer until
/// a birth), and that name must not replace the watch that saw it.
fn adopt(
    processes: &mut Vec<ProcessWatch>,
    parent: Pid,
    children: &[Pid],
    config: &ZeroSumConfig,
    src: &dyn ProcSource,
) {
    for &pid in children {
        let held = |w: &ProcessWatch| w.info.pid == pid && !(w.gone && w.adopted);
        if processes.iter().any(held) {
            continue;
        }
        let Some(found_under) = processes.iter().find(|w| w.info.pid == parent && !w.gone) else {
            return;
        };
        // The parent's node; its own rank, GPUs and mask are not ours.
        let mut info = found_under.info.clone();
        (info.pid, info.rank) = (pid, None);
        info.gpus.clear();
        info.cpus_allowed = CpuSet::new();
        let mut watch = ProcessWatch::new(info, true, config);
        let left = processes.iter().any(|w| w.info.pid == pid);
        if left && src.list_tasks_into(pid, &mut watch.listing).is_err() {
            continue;
        }
        processes.push(watch);
    }
}

/// One planned task's reads: `schedstat` first — it is both the
/// wait-time source and the delta gate — then, unless the gate holds,
/// `stat` and `status` as text, parsed into `buf` as they are read.
fn read_task(
    src: &dyn ProcSource,
    (pid, tid): (Pid, Tid),
    delta_prev: Option<SchedStat>,
    ledger: &mut HealthLedger,
    backoff_us: &mut u64,
    buf: &mut TaskBuffers,
) -> Outcome {
    let TaskBuffers {
        arena,
        stat,
        status,
    } = buf;
    // Nothing outlives the task, so the arena stays a few hundred bytes
    // and hot.
    arena.reset();
    // Optional (CONFIG_SCHED_INFO): absence is not an error and is
    // never retried.
    let ss = src.task_schedstat(pid, tid).ok();
    if let (Some(prev), Some(now)) = (delta_prev, ss) {
        if prev == now {
            return Outcome::Unchanged(now);
        }
    }
    let read = with_retry(ledger, backoff_us, || {
        let span = src.task_stat_text(pid, tid, arena)?;
        let Some(line) = arena.get(span) else {
            return Err(SourceError::Malformed("stat span out of range".into()));
        };
        match parse::parse_task_stat_view(line) {
            Ok(view) => {
                view.assign_to(stat);
                Ok(())
            }
            Err(e) => Err(SourceError::Malformed(e.to_string())),
        }
    })
    .and_then(|()| {
        with_retry(ledger, backoff_us, || {
            let span = src.task_status_text(pid, tid, arena)?;
            let Some(text) = arena.get(span) else {
                return Err(SourceError::Malformed("status span out of range".into()));
            };
            parse::parse_task_status_into(text, status)
                .map_err(|e| SourceError::Malformed(e.to_string()))
        })
    });
    match read {
        Ok(()) => Outcome::Fresh(ss),
        Err(SourceError::NotFound) => Outcome::Vanished,
        Err(_) => Outcome::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZeroSumConfig;
    use crate::monitor::ProcessInfo;
    use std::cell::RefCell;
    use zerosum_proc::fault::{FaultInjector, FaultKind, FaultPlan, ScriptedFault};
    use zerosum_proc::{ExitRace, SourceResult};
    use zerosum_sched::{Behavior, NodeSim, SchedParams, SimProcSource};
    use zerosum_topology::{presets, CpuSet};

    /// A 3-process node: mixed thread counts, distinct HWT groups, one
    /// process that finishes mid-run (exercising the vanish path).
    fn build_sim() -> (NodeSim, Vec<Pid>) {
        build_sim_with(1_200_000)
    }

    fn build_sim_with(rank1_us: u64) -> (NodeSim, Vec<Pid>) {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let mut pids = Vec::new();
        let specs: [(&str, [u32; 2], usize, u64); 3] = [
            ("rank0", [0, 1], 2, 9_000_000),
            ("rank1", [2, 3], 1, rank1_us),
            ("rank2", [4, 5], 3, 9_000_000),
        ];
        for (name, cpus, workers, remaining_us) in specs {
            let pid = sim.spawn_process(
                name,
                CpuSet::from_indices(cpus),
                4_096,
                Behavior::FiniteCompute {
                    remaining_us,
                    chunk_us: 10_000,
                },
            );
            for _ in 0..workers {
                sim.spawn_task(
                    pid,
                    "OpenMP",
                    None,
                    Behavior::FiniteCompute {
                        remaining_us,
                        chunk_us: 10_000,
                    },
                    false,
                );
            }
            pids.push(pid);
        }
        (sim, pids)
    }

    fn monitor_for(pids: &[Pid]) -> Monitor {
        let mut mon = Monitor::new(ZeroSumConfig::default());
        for &pid in pids {
            mon.watch_process(ProcessInfo {
                pid,
                rank: Some(pid),
                hostname: "simnode0001".into(),
                gpus: vec![],
                cpus_allowed: Default::default(),
            });
        }
        mon
    }

    fn assert_identical(serial: &Monitor, sampled: &Monitor) {
        assert_eq!(serial.stats, sampled.stats);
        assert_eq!(
            format!("{:?}", serial.health_total()),
            format!("{:?}", sampled.health_total())
        );
        assert_eq!(serial.hwt.sample_count(), sampled.hwt.sample_count());
        assert_eq!(serial.mem.samples(), sampled.mem.samples());
        for (a, b) in serial.processes().iter().zip(sampled.processes().iter()) {
            assert_eq!(a.gone, b.gone, "pid {}", a.info.pid);
            assert_eq!(a.rss_series.as_slice(), b.rss_series.as_slice());
            assert_eq!(
                a.cpus_allowed.to_list_string(),
                b.cpus_allowed.to_list_string()
            );
            // The live table, row for row: failure state, last-good
            // pair, gate and track position — the oracle's maps against
            // the join's rows.
            assert_eq!(a.health.rows, b.health.rows, "pid {}", a.info.pid);
            assert_eq!(a.health.footprint(), b.health.footprint());
            assert_eq!(a.delta_gate_len(), b.delta_gate_len());
            // Every series held, in `tracks()` order, flags included.
            let series = |w: &crate::monitor::ProcessWatch| -> Vec<_> {
                w.lwps
                    .tracks()
                    .map(|t| {
                        let mut cpus: Vec<u32> = t.cpus_seen.iter().copied().collect();
                        cpus.sort_unstable();
                        let flags = (t.exited, t.retired, t.is_openmp, t.affinity_changed);
                        let affinity = t.affinity.to_list_string();
                        let id = (t.tid, t.name.clone(), t.kind, t.starttime);
                        (id, flags, affinity, cpus, t.samples.as_slice().to_vec())
                    })
                    .collect()
            };
            assert_eq!(series(a), series(b), "pid {}", a.info.pid);
            assert_eq!(a.lwps.departed(), b.lwps.departed());
        }
    }

    /// `Monitor::sample` against the serial oracle, round for round,
    /// through everything a round can meet: a rank that exits mid-run
    /// and whose pid is then recycled, a residue class of workers that
    /// vanish between listing and read, a parked worker (delta hits), a
    /// shed round, with the delta gate on and off.
    #[test]
    fn monitor_sample_is_bit_identical_to_serial_oracle() {
        for delta_on in [true, false] {
            let (mut sim, pids) = build_sim();
            let parked = sim.spawn_task(pids[0], "parked", None, Behavior::Sleeper, false);
            // The race class: every third worker tid, the parked one not
            // among them.
            let residue = u64::from(parked + 1) % 3;
            let mut sampled = monitor_for(&pids);
            let mut serial = monitor_for(&pids);
            for mon in [&mut sampled, &mut serial] {
                mon.config.delta_sampling = delta_on;
            }
            let mut recycled = false;
            for r in 0..12u64 {
                sim.run_for(400_000);
                let rank1_done = SimProcSource::new(&sim)
                    .list_tasks(pids[1])
                    .is_ok_and(|tids| tids.is_empty());
                if r >= 7 && rank1_done && !recycled {
                    sim.respawn_process_with_pid(
                        pids[1],
                        "imposter",
                        CpuSet::from_indices([2u32, 3]),
                        2_048,
                        Behavior::FiniteCompute {
                            remaining_us: 9_000_000,
                            chunk_us: 10_000,
                        },
                    );
                    recycled = true;
                    sim.run_for(10_000);
                }
                let t_s = (r + 1) as f64;
                let src = SimProcSource::new(&sim);
                let raced = ExitRace::new(&src, 3, residue);
                sampled.sample(t_s, &raced);
                crate::monitor::oracle::sample(&mut serial, t_s, &raced);
                // Round 4 blows the deadline, round 5 is shed, and its
                // cheap cost disarms the watchdog again.
                let cost_us = if r == 3 { 600_000 } else { 5_000 };
                sampled.note_round_cost(t_s, cost_us);
                serial.note_round_cost(t_s, cost_us);
                assert_identical(&serial, &sampled);
            }
            assert_eq!(sampled.stats.rounds, 12);
            assert_eq!(serial.governor, sampled.governor);
            assert_eq!(serial.supervisor, sampled.supervisor);
            // The scenario met what it set out to meet.
            assert!(recycled, "rank1 never finished");
            assert_eq!(sampled.governor.shed_rounds, 1);
            assert!(
                sampled.stats.vanished > 0,
                "no worker tid in the race class"
            );
            assert_eq!(sampled.stats.delta_hits > 0, delta_on);
            assert_eq!(sampled.stats.errors, 0);
            let reopened = sampled.process(pids[1]).unwrap();
            assert!(reopened.lwps.tracks().any(|t| t.retired));
            assert_eq!(reopened.lwps.track(pids[1]).unwrap().name, "imposter");
        }
    }

    /// Fails the task listing of one pid with whatever `fail` holds;
    /// everything else passes through.
    struct ListFails<'a> {
        inner: &'a dyn ProcSource,
        pid: Pid,
        fail: Option<SourceError>,
    }

    impl ProcSource for ListFails<'_> {
        fn system_stat(&self) -> SourceResult<zerosum_proc::SystemStat> {
            self.inner.system_stat()
        }
        fn meminfo(&self) -> SourceResult<zerosum_proc::MemInfo> {
            self.inner.meminfo()
        }
        fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
            match &self.fail {
                Some(e) if pid == self.pid => Err(e.clone()),
                _ => self.inner.list_tasks(pid),
            }
        }
        fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
            self.inner.task_stat(pid, tid)
        }
        fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
            self.inner.task_status(pid, tid)
        }
        fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
            self.inner.task_schedstat(pid, tid)
        }
    }

    /// A watch that was read last round and whose listing fails this
    /// round folds nothing: its listing buffer may still hold the round
    /// before's tids, and they must not be planned or folded again.
    /// `Io` for two rounds, a recovery, then `NotFound` — the process
    /// exited — and a few rounds more; on the last of three watches and
    /// on an only one.
    #[test]
    fn failed_listing_does_not_replay_last_rounds_reads() {
        for only_watch in [false, true] {
            let (mut sim, mut pids) = build_sim_with(9_000_000);
            if only_watch {
                pids.drain(..2);
            }
            let victim = *pids.last().unwrap();
            let mut sampled = monitor_for(&pids);
            let mut serial = monitor_for(&pids);
            for r in 0..10u64 {
                sim.run_for(400_000);
                let src = SimProcSource::new(&sim);
                let fail = match r {
                    2 | 3 => Some(SourceError::Io("listing".into())),
                    6.. => Some(SourceError::NotFound),
                    _ => None,
                };
                let failing = ListFails {
                    inner: &src,
                    pid: victim,
                    fail,
                };
                let t_s = (r + 1) as f64;
                sampled.sample(t_s, &failing);
                crate::monitor::oracle::sample(&mut serial, t_s, &failing);
                assert_identical(&serial, &sampled);
            }
            assert_eq!(sampled.stats.rounds, 10);
            let w = sampled.process(victim).unwrap();
            assert!(w.gone);
            // Rounds 1, 2, 5 and 6 listed; the other six read nothing.
            assert_eq!(w.rss_series.len(), 4);
            assert_eq!(w.lwps.track(victim).unwrap().samples.len(), 4);
            assert_eq!(sampled.stats.errors, 2);
            assert_eq!(sampled.stats.vanished, 1);
        }
    }

    /// A `/proc` of one process whose listing is whatever the test sets
    /// and whose every record is a pure function of `(round, tid)` —
    /// the same answers to the round and to the serial loop, whatever
    /// order they ask in. A third of the workers are
    /// parked (constant `schedstat`: delta hits), one tid in eleven has
    /// no `schedstat`, and spells of four rounds make a worker's reads
    /// fail (`Io`, on to quarantine) or race its exit (`NotFound` while
    /// still listed).
    struct Scripted {
        pid: Pid,
        /// `None`: the process is gone.
        listing: Option<Vec<Tid>>,
        /// `starttime` of the incarnation each tid is listed with.
        born: std::collections::HashMap<Tid, u64>,
        round: u64,
        seed: u64,
        /// Of 64 spells, how many fail and how many vanish.
        io_spells: u64,
        vanish_spells: u64,
        /// The main thread only waits (a constant `schedstat`) while
        /// its workers move the process's RSS.
        main_parked: bool,
    }

    fn mix(a: u64, b: u64, c: u64) -> u64 {
        let mut x = a ^ b.rotate_left(21) ^ c.rotate_left(42) ^ 0x9e37_79b9_7f4a_7c15;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    impl Scripted {
        fn new(pid: Pid, seed: u64) -> Self {
            Scripted {
                pid,
                listing: Some(vec![pid]),
                born: [(pid, 1)].into_iter().collect(),
                round: 0,
                seed,
                io_spells: 0,
                vanish_spells: 0,
                main_parked: false,
            }
        }

        /// The record of `tid` this round, or why it cannot be read.
        fn read<T>(&self, pid: Pid, tid: Tid, make: impl FnOnce(u64) -> T) -> SourceResult<T> {
            let born = match self.born.get(&tid) {
                Some(&born) if pid == self.pid => born,
                _ => return Err(SourceError::NotFound),
            };
            let spell = mix(self.seed, u64::from(tid), self.round / 4) % 64;
            if tid != pid && spell < self.io_spells {
                Err(SourceError::Io("scripted".into()))
            } else if tid != pid && spell < self.io_spells + self.vanish_spells {
                Err(SourceError::NotFound)
            } else {
                Ok(make(born))
            }
        }

        fn parked(&self, tid: Tid) -> bool {
            if tid == self.pid {
                self.main_parked
            } else {
                tid.is_multiple_of(3)
            }
        }
    }

    impl ProcSource for Scripted {
        fn system_stat(&self) -> SourceResult<zerosum_proc::SystemStat> {
            let t = zerosum_proc::CpuTimes {
                user: self.round * 7,
                idle: self.round * 93,
                ..Default::default()
            };
            Ok(zerosum_proc::SystemStat {
                total: t,
                cpus: vec![(0, t)],
                ctxt: self.round,
                processes: self.round,
            })
        }
        fn meminfo(&self) -> SourceResult<zerosum_proc::MemInfo> {
            Ok(zerosum_proc::MemInfo {
                mem_total_kib: 1 << 20,
                mem_available_kib: (1 << 19) - self.round,
                ..Default::default()
            })
        }
        fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
            match &self.listing {
                Some(tids) if pid == self.pid => Ok(tids.clone()),
                _ => Err(SourceError::NotFound),
            }
        }
        fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
            let ran = if self.parked(tid) { 0 } else { self.round };
            self.read(pid, tid, |born| TaskStat {
                tid,
                comm: format!("t{tid}-{born}"),
                utime: ran * 3 + born,
                stime: ran,
                minflt: ran / 2,
                num_threads: 1,
                processor: (mix(self.seed, u64::from(tid), ran) % 4) as u32,
                starttime: born,
                ..Default::default()
            })
        }
        fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
            let ran = if self.parked(tid) { 0 } else { self.round };
            self.read(pid, tid, |born| TaskStatus {
                name: format!("t{tid}-{born}"),
                tid,
                tgid: pid,
                vm_rss_kib: 4096 + self.round,
                cpus_allowed: CpuSet::range(0, 3 + (ran / 5) as u32 % 2),
                voluntary_ctxt_switches: ran,
                nonvoluntary_ctxt_switches: ran / 3,
                ..Default::default()
            })
        }
        fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
            if pid != self.pid || !self.born.contains_key(&tid) || tid.is_multiple_of(11) {
                return Err(SourceError::NotFound);
            }
            let ran = if self.parked(tid) { 0 } else { self.round };
            Ok(SchedStat {
                run_ns: ran * 1_000,
                wait_ns: ran * 10,
                timeslices: ran,
            })
        }
    }

    /// Two monitors on `src`: one sampled, one driven by the serial
    /// oracle. A four-round spell of failing reads reaches the
    /// quarantine (`QUARANTINE_AFTER` is three).
    fn scripted_pair(pid: Pid, delta_on: bool, max_exited_tracks: usize) -> (Monitor, Monitor) {
        let mut pair = (monitor_for(&[pid]), monitor_for(&[pid]));
        for mon in [&mut pair.0, &mut pair.1] {
            mon.config.delta_sampling = delta_on;
            mon.config.max_exited_tracks = max_exited_tracks;
        }
        pair
    }

    /// One round of both monitors over `src`, then everything compared.
    fn scripted_round(
        src: &mut Scripted,
        sampled: &mut Monitor,
        serial: &mut Monitor,
        cost_us: u64,
        what: &str,
    ) {
        src.round += 1;
        let t_s = src.round as f64;
        sampled.sample(t_s, src);
        crate::monitor::oracle::sample(serial, t_s, src);
        sampled.note_round_cost(t_s, cost_us);
        serial.note_round_cost(t_s, cost_us);
        assert_identical(serial, sampled);
        assert_eq!(serial.governor, sampled.governor, "{what}");
        assert_eq!(sampled.supervisor.restarts, 0, "{what}");
    }

    /// Listing × table, every way a listing can move between two
    /// rounds, against the serial oracle after every round: arrivals,
    /// departures, both at once, an empty listing, an only-main
    /// process, a tid that leaves and comes back (the same task while
    /// its track is still in the dead tail, after it was evicted, or a
    /// recycled id with a new `starttime` — also without ever leaving
    /// the listing), tids arriving below the ones held, reads that
    /// fail into quarantine or race an exit, shed rounds, the process
    /// itself exiting; with the delta gate on and off.
    #[test]
    fn join_matches_the_serial_oracle_under_seeded_listing_churn() {
        let pid: Pid = 1000;
        let mut met = [0u32; 11];
        let (mut quarantines, mut reprobes) = (0u64, 0u64);
        for seed in 0..24u64 {
            let mut rng = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut src = Scripted::new(pid, seed);
            src.io_spells = 6;
            src.vanish_spells = 4;
            src.main_parked = seed % 4 < 2;
            let (mut sampled, mut serial) = scripted_pair(pid, seed % 2 == 0, 3);
            let mut next_tid: Tid = pid + 1;
            // Tids that left, with the `starttime` they left with.
            let mut left: Vec<(Tid, u64)> = Vec::new();
            let rounds = 40u64;
            for r in 0..rounds {
                let held = src.listing.clone().unwrap_or_default();
                let mut now: Vec<Tid> = Vec::new();
                let mode = next() % 12;
                match mode {
                    0 => met[0] += 1, // empty listing
                    1 => {
                        met[1] += 1; // only the main thread
                        now.push(pid);
                    }
                    _ => {
                        now.push(pid);
                        // Mode 2 replaces every worker at once.
                        for &tid in held.iter().filter(|&&t| t != pid) {
                            if mode != 2 && next() % 5 != 0 {
                                now.push(tid);
                            }
                        }
                        for _ in 0..next() % 4 + u64::from(mode == 2) * 3 {
                            match next() % 6 {
                                // Back from the dead tail (or from beyond it).
                                0 | 1 if !left.is_empty() => {
                                    let (tid, born) =
                                        left.swap_remove(next() as usize % left.len());
                                    if !now.contains(&tid) {
                                        let recycled = next() % 2 == 0;
                                        met[2 + usize::from(recycled)] += 1;
                                        src.born.insert(tid, born + u64::from(recycled) * (r + 1));
                                        now.push(tid);
                                    }
                                }
                                // Ids wrapped around: below everything held.
                                2 => {
                                    let tid = 2 + (next() % 900) as Tid;
                                    if !now.contains(&tid) {
                                        met[4] += 1;
                                        src.born.insert(tid, 10 + r);
                                        now.push(tid);
                                    }
                                }
                                _ => {
                                    src.born.insert(next_tid, 10 + r);
                                    now.push(next_tid);
                                    next_tid += 1;
                                }
                            }
                        }
                        // Recycled between two listings that both show it.
                        if let Some(&tid) =
                            now.get(1).filter(|t| held.contains(t) && next() % 4 == 0)
                        {
                            met[5] += 1;
                            *src.born.entry(tid).or_default() += 1_000;
                        }
                    }
                }
                now.sort_unstable();
                for tid in held.iter().filter(|t| !now.contains(t)) {
                    left.push((*tid, src.born.get(tid).copied().unwrap_or(0)));
                }
                // The last rounds of every third seed: the process exits.
                src.listing = (seed % 3 != 0 || r + 3 < rounds).then_some(now);
                met[6] += u32::from(src.listing.is_none());
                // An overrun now and then: the round after it is shed.
                let overrun = next() % 9 == 0;
                met[7] += u32::from(overrun);
                let cost_us = if overrun { 600_000 } else { 5_000 };
                scripted_round(
                    &mut src,
                    &mut sampled,
                    &mut serial,
                    cost_us,
                    &format!("seed {seed}"),
                );
            }
            let w = &sampled.processes()[0];
            assert_eq!(w.gone, seed % 3 == 0);
            // The gate is never armed for the main thread: every round
            // that listed it has its RSS, parked or not.
            let rss: Vec<u64> = w.rss_series.iter().map(|&(_, kib)| kib).collect();
            assert!(rss.windows(2).all(|w| w[0] < w[1]), "seed {seed}: {rss:?}");
            met[8] += u32::from(w.lwps.departed().tracks > 0);
            let health = sampled.health_total();
            met[9] += u32::from(health.quarantine_events > 0);
            met[10] += u32::from(sampled.stats.delta_hits > 0);
            (quarantines, reprobes) = (
                quarantines + health.quarantine_events,
                reprobes + health.reprobes,
            );
        }
        // Empty, only-main, back, recycled, wrapped, recycled in place,
        // gone, shed; seeds that evicted, quarantined, hit the gate.
        assert!(
            met.iter().all(|&n| n >= 5),
            "a case hardly came up: {met:?}"
        );
        assert!(
            quarantines > 0 && reprobes > 0,
            "{quarantines} quarantine(s), {reprobes} re-probe(s)"
        );
    }

    /// The join at the width of a node-filling OpenMP process: 2 048
    /// threads, one in seven exiting every round and as many arriving,
    /// spells of failing reads holding some in quarantine, a shed round
    /// in the middle — row for row and series for series what the
    /// serial oracle (a scan per task, a search per entry) arrives at.
    #[test]
    fn join_at_2048_threads_matches_the_serial_oracle_round_for_round() {
        let pid: Pid = 5000;
        let mut src = Scripted::new(pid, 77);
        src.io_spells = 5;
        src.vanish_spells = 1;
        let (mut sampled, mut serial) = scripted_pair(pid, true, 512);
        let mut next_tid: Tid = pid + 1;
        let mut listing = vec![pid];
        for _ in 0..2048 {
            listing.push(next_tid);
            next_tid += 1;
        }
        for r in 0..9u64 {
            let before = listing.len();
            listing.retain(|&tid| tid == pid || !mix(r, u64::from(tid), 7).is_multiple_of(7));
            for _ in listing.len()..before {
                listing.push(next_tid);
                next_tid += 1;
            }
            for &tid in &listing {
                src.born.entry(tid).or_insert(10 + r);
            }
            src.listing = Some(listing.clone());
            let cost_us = if r == 4 { 600_000 } else { 5_000 };
            scripted_round(&mut src, &mut sampled, &mut serial, cost_us, "2048 threads");
        }
        let w = &sampled.processes()[0];
        assert_eq!(w.health.rows.len(), 2049);
        assert_eq!(sampled.governor.shed_rounds, 1);
        assert!(w.health.quarantined_now() > 0);
        assert!(w.lwps.departed().tracks > 1_000, "the dead tail was cut");
        assert!(sampled.stats.delta_hits > 2_000);
    }

    /// A source that logs every read it answers, as `(what, pid, tid)`.
    struct Recording<'a> {
        inner: &'a dyn ProcSource,
        log: RefCell<Vec<(&'static str, Pid, Tid)>>,
    }

    impl Recording<'_> {
        fn note(&self, what: &'static str, pid: Pid, tid: Tid) {
            self.log.borrow_mut().push((what, pid, tid));
        }
    }

    impl ProcSource for Recording<'_> {
        fn system_stat(&self) -> SourceResult<zerosum_proc::SystemStat> {
            self.note("system_stat", 0, 0);
            self.inner.system_stat()
        }
        fn meminfo(&self) -> SourceResult<zerosum_proc::MemInfo> {
            self.note("meminfo", 0, 0);
            self.inner.meminfo()
        }
        fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
            self.note("list", pid, 0);
            self.inner.list_tasks(pid)
        }
        fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
            self.note("stat", pid, tid);
            self.inner.task_stat(pid, tid)
        }
        fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
            self.note("status", pid, tid);
            self.inner.task_status(pid, tid)
        }
        fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
            self.note("schedstat", pid, tid);
            self.inner.task_schedstat(pid, tid)
        }
    }

    /// The order of a round's reads, which a fault injector's schedule
    /// and so `zerosum chaos`'s output follow: `/proc/stat`, every
    /// watch's listing, then each watch's tasks in listing order —
    /// `schedstat`, `stat`, `status` — then `meminfo`.
    #[test]
    fn a_round_lists_every_watch_before_reading_any_task() {
        let (mut sim, pids) = build_sim();
        let pids = &pids[..2];
        let mut mon = monitor_for(pids);
        sim.run_for(400_000);
        let src = SimProcSource::new(&sim);
        let rec = Recording {
            inner: &src,
            log: RefCell::new(Vec::new()),
        };
        mon.sample(1.0, &rec);
        let mut want = vec![("system_stat", 0, 0)];
        want.extend(pids.iter().map(|&pid| ("list", pid, 0)));
        for &pid in pids {
            for tid in src.list_tasks(pid).unwrap() {
                want.extend(["schedstat", "stat", "status"].map(|what| (what, pid, tid)));
            }
        }
        want.push(("meminfo", 0, 0));
        assert_eq!(rec.log.into_inner(), want);
    }

    /// A panic inside the list-and-watch phase costs what is left of it
    /// and nothing else: the round keeps its `/proc/stat`, its `meminfo`
    /// and every task folded before the panic, one gap is recorded, and
    /// the next round samples every task of both watches.
    #[test]
    fn a_panic_round_keeps_what_was_folded_before_it() {
        let (mut sim, pids) = build_sim();
        let pids = &pids[..2];
        let (mut faulted, mut clean) = (monitor_for(pids), monitor_for(pids));
        sim.run_for(400_000);
        let src = SimProcSource::new(&sim);
        let first = src.list_tasks(pids[0]).unwrap().len();
        // Calls: `/proc/stat`, two listings, three reads per task of the
        // first watch; then the second watch's first `schedstat`, and
        // its `stat` panics.
        let inj = FaultInjector::new(FaultPlan {
            seed: 1,
            scripted: vec![ScriptedFault {
                call: 3 + 3 * first as u64 + 2,
                kind: FaultKind::Panic,
            }],
            ..Default::default()
        });
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        faulted.sample(1.0, &inj.wrap(&src));
        std::panic::set_hook(prev);
        clean.sample(1.0, &src);
        assert_eq!(faulted.supervisor.restarts, 1);
        assert_eq!(faulted.supervisor.gap_times_s.as_slice(), [1.0]);
        assert_eq!(faulted.mem.samples().len(), 1, "the panic round's meminfo");
        let samples = |mon: &Monitor, i: usize| -> Vec<Vec<(Tid, f64)>> {
            let tracks = mon.processes()[i].lwps.tracks();
            tracks
                .map(|t| t.samples.iter().map(|s| (t.tid, s.t_s)).collect())
                .collect()
        };
        assert_eq!(samples(&faulted, 0).len(), first);
        assert_eq!(
            samples(&faulted, 0),
            samples(&clean, 0),
            "first watch folded"
        );
        assert!(samples(&faulted, 1).iter().all(Vec::is_empty));

        sim.run_for(400_000);
        let src = SimProcSource::new(&sim);
        faulted.sample(2.0, &src);
        clean.sample(2.0, &src);
        assert_eq!(faulted.supervisor.restarts, 1);
        // A delta needs the panic round's `/proc/stat` snapshot.
        assert_eq!(faulted.hwt.sample_count(), 1);
        assert_eq!(faulted.hwt.sample_count(), clean.hwt.sample_count());
        // The panic round's `meminfo` counts only the RSS it read.
        assert_eq!(faulted.mem.samples()[1..], clean.mem.samples()[1..]);
        for (i, &pid) in pids.iter().enumerate() {
            let w = &faulted.processes()[i];
            let listed = src.list_tasks(pid).unwrap();
            assert!(!listed.is_empty());
            for tid in listed {
                let last = w.lwps.track(tid).and_then(|t| t.samples.last());
                assert_eq!(last.map(|s| s.t_s), Some(2.0), "pid {pid} tid {tid}");
            }
        }
    }

    /// The simulator under a process tree it does not model: `kids`
    /// answers `list_children_into`, a pid in `departed` lists as
    /// `NotFound`, and every call is counted (`listed` in call order).
    struct Family<'a> {
        inner: &'a dyn ProcSource,
        kids: RefCell<std::collections::BTreeMap<Pid, SourceResult<Vec<Pid>>>>,
        departed: Vec<Pid>,
        asked: std::cell::Cell<u32>,
        listed: RefCell<Vec<Pid>>,
    }

    impl<'a> Family<'a> {
        fn new(inner: &'a dyn ProcSource, kids: &[(Pid, &[Pid])]) -> Self {
            let kids = kids.iter().map(|&(pid, k)| (pid, Ok(k.to_vec())));
            Family {
                inner,
                kids: RefCell::new(kids.collect()),
                departed: Vec::new(),
                asked: Default::default(),
                listed: Default::default(),
            }
        }
    }

    impl ProcSource for Family<'_> {
        fn system_stat(&self) -> SourceResult<zerosum_proc::SystemStat> {
            self.inner.system_stat()
        }
        fn meminfo(&self) -> SourceResult<zerosum_proc::MemInfo> {
            self.inner.meminfo()
        }
        fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
            let mut out = Vec::new();
            self.list_tasks_into(pid, &mut out)?;
            Ok(out)
        }
        fn list_tasks_into(&self, pid: Pid, out: &mut Vec<Tid>) -> SourceResult<()> {
            self.listed.borrow_mut().push(pid);
            if self.departed.contains(&pid) {
                return Err(SourceError::NotFound);
            }
            self.inner.list_tasks_into(pid, out)
        }
        fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
            self.inner.task_stat(pid, tid)
        }
        fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
            self.inner.task_status(pid, tid)
        }
        fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
            self.inner.task_schedstat(pid, tid)
        }
        fn list_children_into(&self, pid: Pid, _: &[Tid], out: &mut Vec<Pid>) -> SourceResult<()> {
            self.asked.set(self.asked.get() + 1);
            out.clear();
            let kids = self.kids.borrow();
            out.extend(kids.get(&pid).cloned().unwrap_or(Ok(vec![]))?);
            Ok(())
        }
    }

    /// A child, and its child, join in the round that finds them: each a
    /// watch of its own, listed and read in that round; a child that is
    /// gone by its listing is gone at once, and named again it stays
    /// one gone watch, counted once.
    #[test]
    fn descendants_join_as_watches_in_the_round_that_finds_them() {
        let (mut sim, pids) = build_sim();
        let mut mon = monitor_for(&pids[..1]);
        sim.run_for(400_000);
        let src = SimProcSource::new(&sim);
        let family = Family::new(
            &src,
            &[(pids[0], &[pids[1], 99_999]), (pids[1], &[pids[2]])],
        );
        mon.sample(1.0, &family);
        let found: Vec<_> = mon
            .processes()
            .iter()
            .map(|w| (w.info.pid, w.adopted, w.info.rank, w.gone))
            .collect();
        assert_eq!(
            found,
            [
                (pids[0], false, Some(pids[0]), false),
                (pids[1], true, None, false),
                (99_999, true, None, true),
                (pids[2], true, None, false),
            ]
        );
        for w in mon.processes().iter().filter(|w| !w.gone) {
            assert_eq!(w.info.hostname, "simnode0001");
            let listed = src.list_tasks(w.info.pid).unwrap();
            assert_eq!(w.lwps.len(), listed.len(), "pid {}", w.info.pid);
            assert!(w.lwps.tracks().all(|t| t.samples.len() == 1));
        }
        assert_eq!(family.asked.get(), 3, "one ask per live listed watch");
        let vanished = mon.stats.vanished;
        // The same tree next round: nothing new joins.
        sim.run_for(400_000);
        let src = SimProcSource::new(&sim);
        let family = Family::new(
            &src,
            &[(pids[0], &[pids[1], 99_999]), (pids[1], &[pids[2]])],
        );
        mon.sample(2.0, &family);
        let now: Vec<_> = mon
            .processes()
            .iter()
            .map(|w| (w.info.pid, w.gone))
            .collect();
        let then: Vec<_> = found.iter().map(|&(pid, _, _, gone)| (pid, gone)).collect();
        assert_eq!(now, then);
        assert_eq!((mon.stats.vanished, mon.stats.errors), (vanished, 0));
    }

    /// A child that left, named again round after round by a source
    /// that keeps its last `children` answer, keeps the gone watch that
    /// saw it: its tracks stay, and it vanishes once.
    #[test]
    fn a_departed_child_that_is_still_named_keeps_its_watch() {
        let (mut sim, pids) = build_sim();
        let mut mon = monitor_for(&pids[..1]);
        let kids: &[(Pid, &[Pid])] = &[(pids[0], &[pids[1]])];
        for r in 1..=2 {
            sim.run_for(100_000);
            mon.sample(f64::from(r), &Family::new(&SimProcSource::new(&sim), kids));
        }
        let seen = |mon: &Monitor| {
            let w = mon.process(pids[1]).unwrap();
            let samples: Vec<_> = w.lwps.tracks().map(|t| t.samples.len()).collect();
            (w.gone, samples)
        };
        assert_eq!(seen(&mon), (false, vec![2, 2]));
        for r in 3..=6 {
            sim.run_for(100_000);
            let src = SimProcSource::new(&sim);
            let mut family = Family::new(&src, kids);
            family.departed.push(pids[1]);
            mon.sample(f64::from(r), &family);
            assert_eq!(seen(&mon), (true, vec![2, 2]), "round {r}");
            assert_eq!(mon.processes().len(), 2, "round {r}");
            assert_eq!(mon.stats.vanished, 1, "round {r}");
        }
    }

    /// A pid that a gone watch held, found again under a watch that
    /// sits after it, joins without moving the watches the round has
    /// yet to list: each live watch is listed, and asked for its
    /// children, in that round.
    #[test]
    fn a_reused_pid_does_not_make_a_later_watch_miss_its_listing() {
        let (mut sim, pids) = build_sim();
        let q = sim.spawn_process("q", CpuSet::from_indices([6u32]), 1_024, Behavior::Sleeper);
        let (root, c, p) = (pids[0], pids[1], pids[2]);
        let mut mon = monitor_for(&[root]);
        fn round(
            mon: &mut Monitor,
            sim: &mut NodeSim,
            t_s: f64,
            kids: &[(Pid, &[Pid])],
            gone: Option<Pid>,
        ) -> (Vec<Pid>, u32) {
            sim.run_for(100_000);
            let src = SimProcSource::new(sim);
            let mut family = Family::new(&src, kids);
            family.departed.extend(gone);
            mon.sample(t_s, &family);
            (family.listed.take(), family.asked.get())
        }
        round(&mut mon, &mut sim, 1.0, &[(root, &[c, p, q])], None);
        round(&mut mon, &mut sim, 2.0, &[(root, &[c, p, q])], Some(c));
        let order: Vec<_> = mon
            .processes()
            .iter()
            .map(|w| (w.info.pid, w.gone))
            .collect();
        assert_eq!(order, [(root, false), (c, true), (p, false), (q, false)]);
        // `c` answers again, now a child of `p`.
        let (listed, asked) = round(&mut mon, &mut sim, 3.0, &[(root, &[p, q]), (p, &[c])], None);
        for pid in [root, p, q, c] {
            assert!(listed.contains(&pid), "{pid} not listed: {listed:?}");
        }
        assert_eq!(asked, 4, "every live watch asked for its children");
        let order: Vec<_> = mon
            .processes()
            .iter()
            .map(|w| (w.info.pid, w.gone))
            .collect();
        assert_eq!(order, [(root, false), (p, false), (q, false), (c, false)]);
        let fresh = mon.process(c).unwrap();
        assert!(fresh.lwps.tracks().all(|t| t.samples.len() == 1));
    }

    /// Gone descendants are kept up to the dead-track bound, oldest out
    /// first; registered watches are never dropped.
    #[test]
    fn gone_descendants_are_bounded_by_the_dead_track_bound() {
        let (mut sim, pids) = build_sim();
        let mut mon = monitor_for(&[pids[0], 77_777]);
        mon.config.max_exited_tracks = 2;
        for r in 0..5u32 {
            sim.run_for(100_000);
            let src = SimProcSource::new(&sim);
            let family = Family::new(&src, &[(pids[0], &[90_000 + r])]);
            mon.sample(f64::from(r), &family);
        }
        let left: Vec<_> = mon
            .processes()
            .iter()
            .map(|w| (w.info.pid, w.gone))
            .collect();
        assert_eq!(
            left,
            [
                (pids[0], false),
                (77_777, true),
                (90_003, true),
                (90_004, true)
            ]
        );
    }

    /// An adopted pid that the kernel gave to another process (its main
    /// thread's `starttime` moved) is a descendant that left: gone, the
    /// newcomer's reads not folded into it. Found again as a child, the
    /// newcomer is a watch of its own.
    #[test]
    fn an_adopted_pid_that_names_another_process_is_gone() {
        let (mut sim, pids) = build_sim_with(300_000);
        let mut mon = monitor_for(&pids[..1]);
        let kids: &[(Pid, &[Pid])] = &[(pids[0], &[pids[1]])];
        sim.run_for(100_000);
        mon.sample(1.0, &Family::new(&SimProcSource::new(&sim), kids));
        let first = mon
            .process(pids[1])
            .unwrap()
            .lwps
            .track(pids[1])
            .unwrap()
            .starttime;
        while !SimProcSource::new(&sim)
            .list_tasks(pids[1])
            .unwrap()
            .is_empty()
        {
            sim.run_for(100_000);
        }
        sim.respawn_process_with_pid(
            pids[1],
            "imposter",
            CpuSet::from_indices([2u32, 3]),
            2_048,
            Behavior::Sleeper,
        );
        sim.run_for(100_000);
        let vanished = mon.stats.vanished;
        mon.sample(2.0, &Family::new(&SimProcSource::new(&sim), kids));
        let w = mon.process(pids[1]).unwrap();
        assert!(w.gone && mon.stats.vanished > vanished);
        assert!(
            w.lwps.tracks().all(|t| t.starttime == first),
            "nothing of the newcomer"
        );
        sim.run_for(100_000);
        mon.sample(3.0, &Family::new(&SimProcSource::new(&sim), kids));
        let again: Vec<_> = mon
            .processes()
            .iter()
            .filter(|w| w.info.pid == pids[1])
            .collect();
        assert_eq!(again.len(), 1, "the old watch made room");
        assert!(!again[0].gone);
        let track = again[0].lwps.track(pids[1]).unwrap();
        assert!(track.starttime > first && track.name == "imposter");
    }

    /// A source that cannot list children is asked once and named once
    /// in the report; it is no read error.
    #[test]
    fn a_source_without_children_is_named_once_and_asked_once() {
        let (mut sim, pids) = build_sim();
        let mut mon = monitor_for(&pids[..2]);
        sim.run_for(100_000);
        let src = SimProcSource::new(&sim);
        let family = Family::new(&src, &[]);
        let missing = SourceError::Io("no children file".into());
        family.kids.borrow_mut().insert(pids[0], Err(missing));
        for t_s in [1.0, 2.0] {
            mon.sample(t_s, &family);
        }
        assert_eq!(family.asked.get(), 1);
        assert_eq!(mon.processes().len(), 2);
        assert_eq!(mon.stats.errors, 0);
        assert!(mon.health_total().is_clean());
        let report = crate::report::render_process_report(&mon, pids[0], 2.0, None);
        let line = "descendants: not followed (procfs I/O error: no children file)\n";
        assert_eq!(report.matches(line).count(), 1, "{report}");
    }
}
