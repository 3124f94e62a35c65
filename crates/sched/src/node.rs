//! The node simulation engine.
//!
//! [`NodeSim`] advances a virtual clock in fixed ticks and schedules
//! simulated tasks onto the hardware threads of a
//! [`zerosum_topology::Topology`] with a CFS-like policy. The phenomena
//! the paper observes all *emerge* from four mechanisms:
//!
//! 1. **Timeslice preemption** — a task that exhausts its slice while
//!    others wait is preempted (`nvcsw`).
//! 2. **Spin-yield barriers** — a task spinning at a barrier yields the
//!    CPU whenever its runqueue is non-empty. Like Linux `sched_yield`,
//!    such a switch is counted as *non-voluntary* (the task never
//!    blocked), producing Table 1's enormous `nvctx` under
//!    oversubscription while staying near zero when each thread owns a
//!    core.
//! 3. **CPU-metered spin-before-block** — spinning converts to a blocking
//!    wait after the spinner has *executed* `barrier_spin_us` of CPU time
//!    (OpenMP's `KMP_BLOCKTIME` measures spin iterations, not wall time),
//!    producing voluntary switches only where the paper's tables show
//!    them.
//! 4. **New-idle stealing** — a hardware thread that goes idle pulls a
//!    waiting task from the busiest runqueue its affinity allows,
//!    producing the thread migrations of Table 2 and none in Table 3.

use crate::behavior::{Behavior, Op};
use crate::cpu::CpuState;
use crate::devices::DeviceState;
use crate::memory::{NodeMemory, ProcessMemory};
use crate::params::SchedParams;
use crate::task::{CurrentOp, RunState, SimTask, TaskCounters, TaskId};
use crate::trace::{ChargeKind, SimAudit, TaskAudit, TraceEvent, TraceRecord};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;
use zerosum_proc::{IntHash, Pid, Tid};
use zerosum_topology::{CpuSet, ObjectKind, Topology};

/// Sets or clears bit `pos` in a `u64`-word bitmask.
#[inline]
fn mask_set(mask: &mut [u64], pos: usize, on: bool) {
    let bit = 1u64 << (pos % 64);
    if on {
        mask[pos / 64] |= bit;
    } else {
        mask[pos / 64] &= !bit;
    }
}

/// True if any bit is set.
#[inline]
fn mask_any(mask: &[u64]) -> bool {
    mask.iter().any(|&w| w != 0)
}

/// Units per µs of the grid on which op progress is exact: an op's
/// remaining work starts as whole µs, and `tick_us × cpu_speed` is a
/// whole number of 2^-20 µs whenever the speed's binary fraction ends
/// within 20 bits, as 1.0 and the default `smt_efficiency / 2` do
/// (50 × 0.525 = 26.25).
const GRID: f64 = (1u64 << 20) as f64;

/// `x` in grid units, when it is a whole number of them below 2^52, so
/// that sums and differences of such values are exact in `f64`.
fn on_grid(x: f64) -> Option<i64> {
    let s = x * GRID;
    (s.fract() == 0.0 && s.abs() < (1u64 << 52) as f64).then_some(s as i64)
}

/// Subtracts `progress` from `left` `n` times, as `n` quiet ticks of
/// `exec_tick` do. On the grid every one of those subtractions is exact
/// (the result stays above zero), so one multiply-subtract gives the
/// same bits; off it, they are done one by one.
fn sub_ticks(left: &mut f64, progress: f64, n: u64) {
    if on_grid(*left).is_some() && on_grid(progress).is_some() {
        *left -= n as f64 * progress;
    } else {
        for _ in 0..n {
            *left -= progress;
        }
    }
}

/// Quiet ticks before the tick in which per-tick subtraction of
/// `progress` takes `left` to zero or below, at most `cap`. Off the grid
/// the subtractions are stepped, at most 4 096 of them: planning a
/// decision early only costs a stepped tick.
fn ticks_to_finish(left: f64, progress: f64, cap: u64) -> u64 {
    if let (Some(a), Some(b)) = (on_grid(left), on_grid(progress)) {
        if b > 0 {
            return ((a.max(1) - 1) / b).unsigned_abs().min(cap);
        }
    }
    let mut left = left;
    let mut n = 0;
    loop {
        left -= progress;
        if left <= 0.0 || n >= cap.min(4_096) {
            break n;
        }
        n += 1;
    }
}

/// Iterates the set bits of a word snapshot in ascending position order.
/// Visiting from a snapshot is safe because every consumer re-checks the
/// underlying condition (`current` / `runqueue`) at the visit.
macro_rules! for_each_set_bit {
    ($mask:expr, $pos:ident, $body:block) => {
        for wi in 0..$mask.len() {
            let mut w = $mask[wi];
            while w != 0 {
                let $pos = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                $body
            }
        }
    };
}

/// A simulated process: a group of tasks sharing a pid, an affinity mask,
/// and a memory footprint.
#[derive(Debug)]
pub struct SimProcess {
    /// Process id.
    pub pid: Pid,
    /// Executable name.
    pub name: String,
    /// CPUs allowed for the process (inherited by tasks by default).
    pub cpus_allowed: CpuSet,
    /// Task ids belonging to this process (first is the main thread).
    pub tasks: Vec<TaskId>,
    /// Memory model.
    pub memory: ProcessMemory,
    /// MPI rank, when the process is part of a parallel job.
    pub rank: Option<u32>,
}

#[derive(Debug, Default)]
struct BarrierState {
    team_size: u32,
    arrived: u32,
    generation: u64,
    blocked: Vec<TaskId>,
}

/// A snapshot of one simulated GPU's activity, for SMI-style backends.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceSnapshot {
    /// Cumulative busy time, µs.
    pub busy_us: u64,
    /// Device memory currently in use, bytes.
    pub mem_used_bytes: u64,
    /// Peak device memory, bytes.
    pub mem_peak_bytes: u64,
    /// Kernels launched so far.
    pub kernels_launched: u64,
    /// Virtual time of the snapshot, µs.
    pub now_us: u64,
}

/// The discrete-time node simulator. Its results are those of stepping
/// every busy CPU through every tick, but it steps only the CPUs that
/// make a scheduling decision; see [`NodeSim::run_for`].
pub struct NodeSim {
    topology: Topology,
    params: SchedParams,
    hostname: String,
    now_us: u64,
    /// CPU states, ordered by OS index.
    cpus: Vec<CpuState>,
    /// Position in `cpus` of each OS index (`None` where there is no
    /// such hardware thread).
    cpu_pos: Vec<Option<usize>>,
    tasks: Vec<SimTask>,
    tid_map: HashMap<Tid, TaskId, IntHash>,
    processes: BTreeMap<Pid, SimProcess>,
    barriers: HashMap<(Pid, u32), BarrierState, IntHash>,
    devices: BTreeMap<u32, DeviceState>,
    /// Node memory model.
    pub memory: NodeMemory,
    events: BinaryHeap<Reverse<(u64, TaskId)>>,
    next_pid: Pid,
    next_tid: Tid,
    next_balance_us: u64,
    ctxt_total: u64,
    alive_app_tasks: usize,
    /// Bit `pos` set when `cpus[pos].current` is occupied. Lets the main
    /// loop visit only busy hardware threads instead of scanning all of
    /// them every tick (a 128-HWT Frontier node is mostly idle bits).
    busy_mask: Vec<u64>,
    /// Bit `pos` set when `cpus[pos].runqueue` is non-empty.
    queued_mask: Vec<u64>,
    /// Per position: the virtual time up to which the busy CPU's ticks
    /// have been executed. Ticks from here to `now_us` are owed: quiet
    /// by construction, run in bulk by [`Self::catch_up`].
    done_us: Vec<u64>,
    /// Per position: the tick of the busy CPU's next decision (op
    /// finishing, slice expiring with a waiter queued, spin ending),
    /// planned from its state at `done_us` by [`Self::plan`].
    due_us: Vec<u64>,
    /// During a tick's execution, the position running it: CPUs below it
    /// have executed the tick in the naive order, CPUs above have not.
    /// Zero between ticks.
    cursor: usize,
    /// Interned task names: spawning many "OpenMP" workers shares one
    /// allocation.
    name_cache: HashMap<String, Arc<str>>,
    /// Event trace buffer; `None` (the default) records nothing.
    trace: Option<Vec<TraceRecord>>,
    /// Pending GPU-kernel completions `(wake_t, task) -> device`, kept
    /// only while tracing so completion wakes can be attributed.
    gpu_pending: HashMap<(u64, TaskId), u32, IntHash>,
}

impl NodeSim {
    /// Creates a node simulator for the given topology.
    pub fn new(topology: Topology, params: SchedParams) -> Self {
        let mut cpus = Vec::new();
        // Build SMT sibling map from cores.
        for core in topology.objects_of_kind(ObjectKind::Core) {
            let pus: Vec<u32> = topology.object(core).cpuset.iter().collect();
            for &pu in &pus {
                let sibling = pus.iter().copied().find(|&p| p != pu);
                cpus.push(CpuState::new(pu, sibling));
            }
        }
        cpus.sort_by_key(|c| c.os_index);
        let max_os = cpus.last().map_or(0, |c| c.os_index as usize);
        let mut cpu_pos = vec![None; max_os + 1];
        for (i, c) in cpus.iter().enumerate() {
            cpu_pos[c.os_index as usize] = Some(i);
        }
        for cpu in &mut cpus {
            cpu.smt_sibling_pos = cpu.smt_sibling.and_then(|os| cpu_pos[os as usize]);
        }
        let mask_words = cpus.len().div_ceil(64).max(1);
        let ncpus = cpus.len();
        let total_mem_kib = topology
            .object(topology.root())
            .attrs
            .memory_mib
            .unwrap_or(16 * 1024)
            * 1024;
        let balance = params.balance_interval_us;
        NodeSim {
            topology,
            params,
            hostname: "simnode0001".to_string(),
            now_us: 0,
            cpus,
            cpu_pos,
            tasks: Vec::new(),
            tid_map: HashMap::default(),
            processes: BTreeMap::new(),
            barriers: HashMap::default(),
            devices: BTreeMap::new(),
            memory: NodeMemory::new(total_mem_kib),
            events: BinaryHeap::new(),
            next_pid: 18_000,
            next_tid: 18_001,
            next_balance_us: balance,
            ctxt_total: 0,
            alive_app_tasks: 0,
            busy_mask: vec![0; mask_words],
            queued_mask: vec![0; mask_words],
            done_us: vec![0; ncpus],
            due_us: vec![u64::MAX; ncpus],
            cursor: 0,
            name_cache: HashMap::new(),
            trace: None,
            gpu_pending: HashMap::default(),
        }
    }

    /// Returns the interned copy of `name`.
    fn intern_name(&mut self, name: &str) -> Arc<str> {
        if let Some(n) = self.name_cache.get(name) {
            return n.clone();
        }
        let interned: Arc<str> = Arc::from(name);
        self.name_cache.insert(name.to_string(), interned.clone());
        interned
    }

    /// Re-derives the busy/queued bits for CPU `pos`. Must be called after
    /// any mutation of `cpus[pos].current` or `cpus[pos].runqueue`.
    #[inline]
    fn refresh_cpu_flags(&mut self, pos: usize) {
        mask_set(&mut self.busy_mask, pos, self.cpus[pos].current.is_some());
        mask_set(
            &mut self.queued_mask,
            pos,
            !self.cpus[pos].runqueue.is_empty(),
        );
    }

    /// Turns structured event tracing on or off. Enabling starts a fresh
    /// buffer; disabling discards any recorded events.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
        self.gpu_pending.clear();
        // A traced CPU decides every tick: re-plan under the new mode.
        for_each_set_bit!(self.busy_mask, pos, {
            self.plan(pos);
        });
    }

    /// True when an event buffer is installed.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Takes the recorded events, leaving tracing enabled with an empty
    /// buffer. Returns an empty vector when tracing is off.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        match self.trace.as_mut() {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// Snapshots the aggregate accounting for the invariant engine.
    pub fn audit(&self) -> SimAudit {
        SimAudit {
            now_us: self.now_us,
            tick_us: self.params.tick_us,
            ctxt_total: self.ctxt_total,
            cpus: self.cpu_times_us(),
            tasks: self
                .tasks
                .iter()
                .map(|t| TaskAudit {
                    tid: t.tid,
                    pid: t.pid,
                    name: t.name.clone(),
                    affinity: t.affinity.clone(),
                    counters: t.counters,
                    exited: t.is_exited(),
                    service: t.service,
                })
                .collect(),
        }
    }

    /// Records an event if tracing is on. The closure runs only when a
    /// buffer is installed, so the off path costs one branch.
    #[inline]
    fn emit<F: FnOnce() -> TraceEvent>(&mut self, ev: F) {
        if let Some(buf) = &mut self.trace {
            buf.push(TraceRecord {
                t_us: self.now_us,
                ev: ev(),
            });
        }
    }

    /// Sets the reported hostname.
    pub fn set_hostname(&mut self, name: &str) {
        self.hostname = name.to_string();
    }

    /// The reported hostname.
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    /// Current virtual time, µs.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// The simulated topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The scheduler parameters.
    pub fn params(&self) -> &SchedParams {
        &self.params
    }

    /// Pids of all processes, ascending.
    pub fn pids(&self) -> Vec<Pid> {
        self.processes.keys().copied().collect()
    }

    /// Access a process.
    pub fn process(&self, pid: Pid) -> Option<&SimProcess> {
        self.processes.get(&pid)
    }

    /// True when every task of `pid` has exited — the process is a
    /// zombie awaiting reap, so its pid is eligible for recycling via
    /// [`NodeSim::respawn_process_with_pid`]. Unknown pids report
    /// `false` (they were never spawned, so they cannot be reaped).
    pub fn process_exited(&self, pid: Pid) -> bool {
        self.processes
            .get(&pid)
            .is_some_and(|p| p.tasks.iter().all(|&id| self.tasks[id.index()].is_exited()))
    }

    /// Access a task by tid.
    pub fn task_by_tid(&self, tid: Tid) -> Option<&SimTask> {
        self.tid_map.get(&tid).and_then(|&id| self.task(id))
    }

    /// Access a task by arena id.
    pub fn task(&self, id: TaskId) -> Option<&SimTask> {
        self.tasks.get(id.index())
    }

    /// Spawns a process with a main thread running `behavior`.
    pub fn spawn_process(
        &mut self,
        name: &str,
        cpus_allowed: CpuSet,
        rss_target_kib: u64,
        behavior: Behavior,
    ) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 100;
        self.next_tid = self.next_tid.max(pid) + 1;
        self.processes.insert(
            pid,
            SimProcess {
                pid,
                name: name.to_string(),
                cpus_allowed,
                tasks: Vec::new(),
                memory: ProcessMemory::new(self.now_us, rss_target_kib),
                rank: None,
            },
        );
        // Main thread: tid == pid, like Linux. It inherits the process
        // mask (no extra clone of the mask we just stored).
        self.spawn_task_with_tid(pid, pid, name, None, behavior, false);
        pid
    }

    /// Tags a process with its MPI rank.
    pub fn set_rank(&mut self, pid: Pid, rank: u32) {
        if let Some(p) = self.processes.get_mut(&pid) {
            p.rank = Some(rank);
        }
    }

    /// Spawns an additional task (thread) in `pid`. Returns its tid.
    ///
    /// `affinity` defaults to the process mask. `service` tasks do not
    /// count toward application completion.
    pub fn spawn_task(
        &mut self,
        pid: Pid,
        name: &str,
        affinity: Option<CpuSet>,
        behavior: Behavior,
        service: bool,
    ) -> Tid {
        let tid = self.next_tid;
        self.next_tid += 1;
        self.spawn_task_with_tid(pid, tid, name, affinity, behavior, service)
    }

    fn spawn_task_with_tid(
        &mut self,
        pid: Pid,
        tid: Tid,
        name: &str,
        affinity: Option<CpuSet>,
        behavior: Behavior,
        service: bool,
    ) -> Tid {
        let proc_mask = &self
            .processes
            .get(&pid)
            .expect("spawn_task: unknown pid")
            .cpus_allowed;
        // Clone the process mask only when the task has no explicit one.
        let affinity = affinity.unwrap_or_else(|| proc_mask.clone());
        assert!(
            !affinity.is_empty(),
            "task affinity must not be empty (pid {pid}, {name})"
        );
        // Register barrier membership before the task runs.
        if let Behavior::Worker { spec, .. } = &behavior {
            if let Some(bar) = spec.barrier {
                self.barriers.entry((pid, bar)).or_default().team_size += 1;
            }
        }
        let id = TaskId(self.tasks.len() as u32);
        let seed = self
            .params
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tid as u64)
            | 1;
        let name = self.intern_name(name);
        self.tasks.push(SimTask {
            tid,
            pid,
            name,
            affinity,
            state: RunState::Runnable,
            counters: TaskCounters::default(),
            last_cpu: 0,
            has_run: false,
            spawned_at_us: self.now_us,
            service,
            behavior,
            op: CurrentOp::Fetch,
            slice_used_us: 0,
            enqueued_at_us: 0,
            rng_state: seed,
        });
        self.tid_map.insert(tid, id);
        if let Some(p) = self.processes.get_mut(&pid) {
            p.tasks.push(id);
        }
        if !service {
            self.alive_app_tasks += 1;
        }
        if self.trace.is_some() {
            let affinity = self.tasks[id.index()].affinity.clone();
            self.emit(|| TraceEvent::Spawn { tid, pid, affinity });
        }
        self.enqueue(id);
        tid
    }

    /// Re-spawns a process under a previously used pid — the PID-reuse
    /// race. Linux recycles ids once the old process is reaped; a monitor
    /// that keys series by tid alone will splice the new task's counters
    /// onto the dead one's history. All tasks of the old process must
    /// already have exited. The new main thread gets a fresh `starttime`
    /// (the current virtual time), which is the discriminator `/proc`
    /// offers.
    pub fn respawn_process_with_pid(
        &mut self,
        pid: Pid,
        name: &str,
        cpus_allowed: CpuSet,
        rss_target_kib: u64,
        behavior: Behavior,
    ) -> Pid {
        let old = self
            .processes
            .get(&pid)
            .expect("respawn_process_with_pid: pid was never used");
        assert!(
            old.tasks
                .iter()
                .all(|&id| self.tasks[id.index()].is_exited()),
            "respawn_process_with_pid: old process still has live tasks"
        );
        self.processes.insert(
            pid,
            SimProcess {
                pid,
                name: name.to_string(),
                cpus_allowed,
                tasks: Vec::new(),
                memory: ProcessMemory::new(self.now_us, rss_target_kib),
                rank: None,
            },
        );
        // `tid_map` now points the recycled tid at the new task; the old
        // arena entry stays for post-mortem accounting but is no longer
        // reachable by tid — exactly like a reaped Linux process.
        self.spawn_task_with_tid(pid, pid, name, None, behavior, false);
        pid
    }

    /// Registers one additional member on barrier `(pid, id)` without
    /// spawning a worker for it — the "thread that grabbed the lock and
    /// never arrives" in deadlock-injection scenarios.
    pub fn register_barrier_member(&mut self, pid: Pid, id: u32) {
        self.barriers.entry((pid, id)).or_default().team_size += 1;
    }

    /// Changes a task's affinity mask at runtime (like
    /// `pthread_setaffinity_np`); takes effect at its next dispatch.
    pub fn set_task_affinity(&mut self, tid: Tid, affinity: CpuSet) {
        assert!(!affinity.is_empty(), "affinity must not be empty");
        let Some(&id) = self.tid_map.get(&tid) else {
            return;
        };
        // Clone the mask only when a trace buffer will consume the copy;
        // the task itself takes ownership of the argument.
        if self.trace.is_some() {
            let mask = affinity.clone();
            self.emit(|| TraceEvent::AffinityChange {
                tid,
                affinity: mask,
            });
        }
        self.tasks[id.index()].affinity = affinity;
        match self.tasks[id.index()].state {
            RunState::Running => {
                // Like sched_setaffinity: migrate off a disallowed CPU now.
                let pos = self
                    .pos_of(self.tasks[id.index()].last_cpu)
                    .expect("running task on unknown cpu");
                let cpu = self.cpus[pos].os_index;
                if !self.tasks[id.index()].affinity.contains(cpu) {
                    self.set_current(pos, None);
                    self.emit(|| TraceEvent::Deschedule { tid, cpu });
                    self.enqueue(id);
                }
            }
            RunState::Runnable => {
                // Re-place if queued on a now-disallowed CPU.
                let mut found = None;
                let allowed = &self.tasks[id.index()].affinity;
                for (pos, cpu) in self.cpus.iter().enumerate() {
                    if allowed.contains(cpu.os_index) {
                        continue;
                    }
                    if let Some(i) = cpu.runqueue.iter().position(|&t| t == id) {
                        found = Some((pos, i));
                        break;
                    }
                }
                if let Some((pos, i)) = found {
                    self.cpus[pos].runqueue.remove(i);
                    self.refresh_cpu_flags(pos);
                    self.plan(pos);
                    let cpu = self.cpus[pos].os_index;
                    self.emit(|| TraceEvent::Dequeue { tid, cpu });
                    self.enqueue(id);
                }
            }
            RunState::Blocked | RunState::Exited => {}
        }
    }

    // ----- scheduling internals ------------------------------------------

    /// Places a runnable task on the least-loaded CPU its mask allows.
    fn enqueue(&mut self, id: TaskId) {
        let task = &self.tasks[id.index()];
        debug_assert_ne!(task.state, RunState::Exited);
        let mut best: Option<(usize, usize)> = None; // (load, pos)
        let last = task.last_cpu;
        for cpu_os in task.affinity.iter() {
            if let Some(pos) = self.pos_of(cpu_os) {
                let load = self.cpus[pos].nr_running();
                let better = match best {
                    None => true,
                    Some((bl, bpos)) => {
                        load < bl
                            || (load == bl && cpu_os == last && self.cpus[bpos].os_index != last)
                    }
                };
                if better {
                    best = Some((load, pos));
                }
            }
        }
        let (_, pos) = best.expect("affinity contains no known CPUs");
        let task = &mut self.tasks[id.index()];
        task.state = RunState::Runnable;
        task.enqueued_at_us = self.now_us;
        // A task entering the queue from a blocked state needs its next
        // operation fetched when it is dispatched.
        if matches!(task.op, CurrentOp::Waiting) {
            task.op = CurrentOp::Fetch;
        }
        let tid = task.tid;
        // A waiter changes the CPU's slice and spin-yield decisions.
        self.catch_up(pos);
        self.cpus[pos].runqueue.push_back(id);
        self.refresh_cpu_flags(pos);
        self.plan(pos);
        let cpu = self.cpus[pos].os_index;
        self.emit(|| TraceEvent::Enqueue { tid, cpu });
    }

    /// Position of OS CPU `os` in `cpus`, if the node has it.
    #[inline]
    fn pos_of(&self, os: u32) -> Option<usize> {
        self.cpu_pos.get(os as usize).copied().flatten()
    }

    /// True when task `id` on a core slows its SMT sibling: it runs
    /// and is not a service task.
    #[inline]
    fn loads_core(&self, id: Option<TaskId>) -> bool {
        id.is_some_and(|t| !self.tasks[t.index()].service)
    }

    /// Puts `id` (or nothing) on CPU `pos`. When that changes the SMT
    /// sibling's speed, the sibling is caught up first, so its owed
    /// ticks run at the old speed, and its next decision is re-planned.
    fn set_current(&mut self, pos: usize, id: Option<TaskId>) {
        let sib = self.cpus[pos].smt_sibling_pos.filter(|&s| {
            self.cpus[s].current.is_some()
                && self.loads_core(self.cpus[pos].current) != self.loads_core(id)
        });
        if let Some(s) = sib {
            self.catch_up(s);
        }
        self.cpus[pos].current = id;
        self.refresh_cpu_flags(pos);
        if let Some(s) = sib {
            self.plan(s);
        }
    }

    /// Dispatches the next task on CPU `pos`, if any.
    fn dispatch(&mut self, pos: usize) {
        if self.cpus[pos].current.is_some() {
            return;
        }
        let Some(id) = self.cpus[pos].runqueue.pop_front() else {
            return;
        };
        let os = self.cpus[pos].os_index;
        let now = self.now_us;
        let task = &mut self.tasks[id.index()];
        let tid = task.tid;
        let migrated_from = (task.has_run && task.last_cpu != os).then_some(task.last_cpu);
        if migrated_from.is_some() {
            task.counters.migrations += 1;
        }
        task.counters.wait_us += now.saturating_sub(task.enqueued_at_us);
        task.counters.dispatches += 1;
        task.last_cpu = os;
        task.has_run = true;
        task.state = RunState::Running;
        task.slice_used_us = 0;
        self.set_current(pos, Some(id));
        self.done_us[pos] = now;
        self.plan(pos);
        if let Some(from) = migrated_from {
            self.emit(|| TraceEvent::Migrate { tid, from, to: os });
        }
        self.emit(|| TraceEvent::Dispatch { tid, cpu: os });
    }

    /// Fetches ops from the task's behavior until one that occupies the
    /// CPU (or blocks/exits) is installed. Returns `true` if the task
    /// remains on CPU.
    fn fetch_op(&mut self, pos: usize, id: TaskId) -> bool {
        loop {
            let jitter = self.tasks[id.index()].next_f64();
            let op = self.tasks[id.index()].behavior.next_op(jitter);
            match op {
                Op::Compute { us } => {
                    self.tasks[id.index()].op = CurrentOp::Compute {
                        remaining_us: us as f64,
                    };
                    return true;
                }
                Op::Syscall { us } => {
                    self.tasks[id.index()].op = CurrentOp::Syscall {
                        remaining_us: us as f64,
                    };
                    return true;
                }
                Op::Sleep { us } => {
                    self.block(pos, id);
                    let wake = self.now_us.saturating_add(us);
                    self.events.push(Reverse((wake, id)));
                    return false;
                }
                Op::Barrier { id: bar } => {
                    let pid = self.tasks[id.index()].pid;
                    let state = self
                        .barriers
                        .get_mut(&(pid, bar))
                        .expect("barrier not registered");
                    state.arrived += 1;
                    if state.arrived >= state.team_size {
                        // Last arrival: release everyone and continue.
                        // Spinners elsewhere see the new generation in
                        // the naive position order: catch them up first.
                        let generation = state.generation;
                        self.spinners(pid, bar, generation, Self::catch_up);
                        let state = self.barriers.get_mut(&(pid, bar)).expect("barrier");
                        state.arrived = 0;
                        state.generation += 1;
                        let blocked = std::mem::take(&mut state.blocked);
                        self.spinners(pid, bar, generation, Self::plan);
                        let waker_cpu = self.cpus[pos].os_index;
                        for waiter in blocked {
                            let wtid = self.tasks[waiter.index()].tid;
                            self.emit(|| TraceEvent::Wake {
                                tid: wtid,
                                waker_cpu: Some(waker_cpu),
                            });
                            self.tasks[waiter.index()].state = RunState::Runnable;
                            self.enqueue(waiter);
                        }
                        continue;
                    }
                    let generation = state.generation;
                    // Spin first; block after barrier_spin_us of *CPU*.
                    let budget = self.params.barrier_spin_us;
                    self.tasks[id.index()].op = CurrentOp::BarrierSpin {
                        barrier: bar,
                        generation,
                        // Interpreted as remaining spin CPU budget, µs.
                        block_at_us: budget,
                    };
                    return true;
                }
                Op::OffloadWait {
                    device,
                    kernel_us,
                    bytes,
                } => {
                    let dev = self.devices.entry(device).or_default();
                    let done = dev.enqueue(self.now_us, kernel_us);
                    dev.touch_memory(bytes);
                    let tid = self.tasks[id.index()].tid;
                    self.emit(|| TraceEvent::GpuEnqueue {
                        tid,
                        device,
                        kernel_us,
                        complete_at_us: done,
                    });
                    if self.trace.is_some() {
                        self.gpu_pending.insert((done, id), device);
                    }
                    self.block(pos, id);
                    self.events.push(Reverse((done, id)));
                    return false;
                }
                Op::Exit => {
                    let task = &mut self.tasks[id.index()];
                    let tid = task.tid;
                    task.state = RunState::Exited;
                    task.op = CurrentOp::Exited;
                    if !task.service {
                        self.alive_app_tasks -= 1;
                    }
                    self.set_current(pos, None);
                    let cpu = self.cpus[pos].os_index;
                    self.emit(|| TraceEvent::Exit { tid, cpu });
                    return false;
                }
            }
        }
    }

    /// Takes the task off CPU voluntarily.
    fn block(&mut self, pos: usize, id: TaskId) {
        let task = &mut self.tasks[id.index()];
        let tid = task.tid;
        task.state = RunState::Blocked;
        task.op = CurrentOp::Waiting;
        task.counters.vcsw += 1;
        self.ctxt_total += 1;
        self.set_current(pos, None);
        let cpu = self.cpus[pos].os_index;
        self.emit(|| TraceEvent::Block { tid, cpu });
    }

    /// Execution speed of the task on CPU `pos` under the SMT model: half
    /// throughput (scaled by `smt_efficiency`) when the sibling hardware
    /// thread runs non-service compute, full speed otherwise.
    #[inline]
    fn cpu_speed(&self, pos: usize) -> f64 {
        match self.cpus[pos].smt_sibling_pos {
            Some(sib) if self.loads_core(self.cpus[sib].current) => {
                self.params.smt_efficiency / 2.0
            }
            _ => 1.0,
        }
    }

    /// Executes one tick on CPU `pos`. The CPU must have a current task.
    fn exec_tick(&mut self, pos: usize) {
        let tick = self.params.tick_us;
        let id = self.cpus[pos].current.expect("exec_tick: no current");
        // SMT: if the sibling hardware thread is also running *compute*
        // work, this task progresses at smt_efficiency/2 of full speed
        // (CPU *time* still accrues at wall rate — that is what /proc
        // reports). Service tasks (monitor threads, progress pollers)
        // perform memory-light bookkeeping that does not meaningfully
        // contend for core execution resources — this is why the paper's
        // default "last hardware thread" monitor placement is essentially
        // free when the SMT sibling is idle (Figure 8, left).
        let progress = tick as f64 * self.cpu_speed(pos);
        let mut finished = false;
        let mut spin_released = false;
        let mut spin_exhausted = false;
        // Snapshot the op kind to keep borrows short.
        enum Kind {
            Compute,
            Syscall,
            Spin { bar: u32, generation: u64 },
        }
        let kind = match &self.tasks[id.index()].op {
            CurrentOp::Compute { .. } => Kind::Compute,
            CurrentOp::Syscall { .. } => Kind::Syscall,
            CurrentOp::BarrierSpin {
                barrier,
                generation,
                ..
            } => Kind::Spin {
                bar: *barrier,
                generation: *generation,
            },
            other => unreachable!("exec_tick on op {other:?}"),
        };
        let charge_kind;
        match kind {
            Kind::Compute => {
                let task = &mut self.tasks[id.index()];
                task.counters.utime_us += tick;
                if let CurrentOp::Compute { remaining_us } = &mut task.op {
                    *remaining_us -= progress;
                    finished = *remaining_us <= 0.0;
                }
                self.cpus[pos].user_us += tick;
                charge_kind = ChargeKind::User;
            }
            Kind::Syscall => {
                let task = &mut self.tasks[id.index()];
                task.counters.stime_us += tick;
                if let CurrentOp::Syscall { remaining_us } = &mut task.op {
                    *remaining_us -= progress;
                    finished = *remaining_us <= 0.0;
                }
                self.cpus[pos].system_us += tick;
                charge_kind = ChargeKind::System;
            }
            Kind::Spin { bar, generation } => {
                // Spinning is user-mode CPU time.
                let pid = self.tasks[id.index()].pid;
                self.tasks[id.index()].counters.utime_us += tick;
                self.cpus[pos].user_us += tick;
                charge_kind = ChargeKind::User;
                let released = self
                    .barriers
                    .get(&(pid, bar))
                    .map(|b| b.generation != generation)
                    .unwrap_or(true);
                if released {
                    spin_released = true;
                } else {
                    // Burn spin budget (CPU-metered, like KMP_BLOCKTIME).
                    if let CurrentOp::BarrierSpin { block_at_us, .. } =
                        &mut self.tasks[id.index()].op
                    {
                        *block_at_us = block_at_us.saturating_sub(tick);
                        if *block_at_us == 0 {
                            spin_exhausted = true;
                        }
                    }
                }
            }
        }
        {
            let tid = self.tasks[id.index()].tid;
            let cpu = self.cpus[pos].os_index;
            self.emit(|| TraceEvent::JiffyCharge {
                tid,
                cpu,
                kind: charge_kind,
                us: tick,
            });
        }
        if spin_released {
            self.tasks[id.index()].op = CurrentOp::Fetch;
            self.fetch_op(pos, id);
            return;
        }
        if spin_exhausted {
            // Convert the spin into a blocking wait on the barrier.
            let (pid, bar, generation) = match &self.tasks[id.index()].op {
                CurrentOp::BarrierSpin {
                    barrier,
                    generation,
                    ..
                } => (self.tasks[id.index()].pid, *barrier, *generation),
                _ => unreachable!(),
            };
            let state = self.barriers.get_mut(&(pid, bar)).expect("barrier");
            if state.generation != generation {
                // Raced with release during this tick: continue instead.
                self.tasks[id.index()].op = CurrentOp::Fetch;
                self.fetch_op(pos, id);
            } else {
                state.blocked.push(id);
                self.block(pos, id);
                self.new_idle_steal(pos);
            }
            return;
        }
        if finished {
            self.tasks[id.index()].op = CurrentOp::Fetch;
            if !self.fetch_op(pos, id) {
                // Task left the CPU (blocked or exited).
                self.new_idle_steal(pos);
                return;
            }
        }
        // Spin-yield: a spinning task gives way whenever someone waits.
        let is_spinning = matches!(self.tasks[id.index()].op, CurrentOp::BarrierSpin { .. });
        self.tasks[id.index()].slice_used_us += tick;
        let nr = self.cpus[pos].nr_running();
        if !self.cpus[pos].runqueue.is_empty() {
            let slice = self.params.timeslice_us(nr);
            let yield_now = is_spinning || self.tasks[id.index()].slice_used_us >= slice;
            if yield_now {
                // Preemption / yield: non-voluntary switch.
                let now = self.now_us;
                let task = &mut self.tasks[id.index()];
                let tid = task.tid;
                task.counters.nvcsw += 1;
                task.state = RunState::Runnable;
                task.enqueued_at_us = now;
                self.ctxt_total += 1;
                self.cpus[pos].runqueue.push_back(id);
                self.set_current(pos, None);
                let cpu = self.cpus[pos].os_index;
                self.emit(|| TraceEvent::Preempt { tid, cpu });
            }
        }
    }

    /// When CPU `pos` goes idle, steal a waiting task from the busiest
    /// runqueue whose waiter may run here (CFS new-idle balancing) — the
    /// migration mechanism of Table 2.
    fn new_idle_steal(&mut self, pos: usize) {
        if !self.cpus[pos].is_idle() {
            return;
        }
        let my_os = self.cpus[pos].os_index;
        let mut best: Option<(usize, usize, usize)> = None; // (load, donor_pos, rq_idx)
                                                            // A donor needs nr_running ≥ 2, which implies a non-empty
                                                            // runqueue — scan only the queued bits, in ascending order.
        for_each_set_bit!(self.queued_mask, dpos, {
            let cpu = &self.cpus[dpos];
            if dpos != pos && cpu.nr_running() >= 2 {
                // Find the last (coldest) stealable waiter.
                for (rq_idx, &cand) in cpu.runqueue.iter().enumerate().rev() {
                    if self.tasks[cand.index()].affinity.contains(my_os) {
                        let load = cpu.nr_running();
                        if best.map(|(bl, _, _)| load > bl).unwrap_or(true) {
                            best = Some((load, dpos, rq_idx));
                        }
                        break;
                    }
                }
            }
        });
        if let Some((_, dpos, rq_idx)) = best {
            let id = self.cpus[dpos].runqueue.remove(rq_idx).expect("steal idx");
            let tid = self.tasks[id.index()].tid;
            let from = self.cpus[dpos].os_index;
            self.cpus[pos].runqueue.push_back(id);
            self.refresh_cpu_flags(dpos);
            self.refresh_cpu_flags(pos);
            // A lost waiter only postpones the donor's decisions, so its
            // owed ticks stay quiet: re-planning saves a stepped tick.
            self.plan(dpos);
            self.emit(|| TraceEvent::Steal {
                tid,
                from,
                to: my_os,
            });
        }
    }

    /// Periodic balancing: move waiters from overloaded CPUs to idle ones.
    /// A steal queues work only on its thief and leaves each donor one
    /// task at least, so walking the positions in order visits exactly
    /// the CPUs idle when the pass began.
    fn balance(&mut self) {
        for pos in 0..self.cpus.len() {
            self.new_idle_steal(pos);
        }
    }

    /// Runs `f` on every CPU whose current task spins on barrier
    /// `(pid, bar)` at `generation`.
    fn spinners(&mut self, pid: Pid, bar: u32, generation: u64, f: fn(&mut Self, usize)) {
        for_each_set_bit!(self.busy_mask, pos, {
            let spins = self.cpus[pos].current.is_some_and(|id| {
                let t = &self.tasks[id.index()];
                t.pid == pid
                    && matches!(t.op, CurrentOp::BarrierSpin { barrier, generation: g, .. }
                        if barrier == bar && g == generation)
            });
            if spins {
                f(self, pos);
            }
        });
    }

    // ----- main loop ------------------------------------------------------

    /// Advances virtual time by `duration_us`.
    ///
    /// Results are those of the naive stepper, which runs every busy CPU
    /// through every tick in ascending position order, but only the CPUs
    /// that decide are stepped: each busy CPU plans the tick of its next
    /// decision, the loop jumps to the earliest of those, the next wake
    /// event and the next balance pass, and runs `exec_tick` there on
    /// the deciding CPUs alone. Every other CPU owes its quiet ticks and
    /// is caught up (the same charges and `f64` results as stepping them)
    /// just before its SMT sibling's speed changes, its runqueue gains a
    /// waiter or the barrier it spins on releases, and before this
    /// returns, so `audit()` and `SimProcSource` see naive-exact state.
    /// While tracing every busy CPU decides every tick, so traces keep
    /// one `JiffyCharge` per tick: the traced run is the naive stepper.
    pub fn run_for(&mut self, duration_us: u64) {
        self.run_for_inner(duration_us, false);
    }

    /// The engine loop. With `stop_when_apps_done` the loop exits at the
    /// top of the first iteration after the last non-service task exited —
    /// exact-tick completion detection for [`Self::run_until_apps_done`].
    fn run_for_inner(&mut self, duration_us: u64, stop_when_apps_done: bool) {
        let target = self.now_us + duration_us;
        let tick = self.params.tick_us;
        while self.now_us < target {
            if stop_when_apps_done && self.alive_app_tasks == 0 {
                break;
            }
            // Deliver due wake events.
            while let Some(&Reverse((t, id))) = self.events.peek() {
                if t > self.now_us {
                    break;
                }
                self.events.pop();
                let device = if self.gpu_pending.is_empty() {
                    None
                } else {
                    self.gpu_pending.remove(&(t, id))
                };
                if self.tasks[id.index()].state == RunState::Blocked {
                    let tid = self.tasks[id.index()].tid;
                    if let Some(device) = device {
                        self.emit(|| TraceEvent::GpuComplete { tid, device });
                    }
                    self.emit(|| TraceEvent::Wake {
                        tid,
                        waker_cpu: None,
                    });
                    self.enqueue(id);
                }
            }
            // Dispatch idle CPUs that have queued work.
            for wi in 0..self.queued_mask.len() {
                let mut w = self.queued_mask[wi] & !self.busy_mask[wi];
                while w != 0 {
                    let pos = wi * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    self.dispatch(pos);
                }
            }
            let now = self.now_us;
            if !mask_any(&self.busy_mask) {
                // Fast-forward to the next event (or the target).
                let next = self
                    .events
                    .peek()
                    .map(|&Reverse((t, _))| t)
                    .unwrap_or(target)
                    .max(now + tick)
                    .min(target);
                self.now_us = next;
                continue;
            }
            // The next tick anything happens at: a CPU decides, the
            // balance pass follows it, or it is the window's last.
            let last = now + ((target - now).div_ceil(tick) - 1) * tick;
            let balance = now
                + (self.next_balance_us.saturating_sub(now).div_ceil(tick)).saturating_sub(1)
                    * tick;
            let mut t = last.min(balance);
            for_each_set_bit!(self.busy_mask, pos, {
                t = t.min(self.due_us[pos]);
            });
            if let Some(&Reverse((ev, _))) = self.events.peek() {
                let ev_tick = now + (ev - now).div_ceil(tick) * tick;
                if ev_tick <= t {
                    self.now_us = ev_tick;
                    continue;
                }
            }
            self.now_us = t;
            for_each_set_bit!(self.busy_mask, pos, {
                if let Some(id) = self.cpus[pos].current.filter(|_| self.due_us[pos] <= t) {
                    self.cursor = pos;
                    self.catch_up(pos);
                    // Install the op of a freshly-dispatched task, then
                    // execute the tick, unless the task left the CPU
                    // while fetching (blocked/exited).
                    if !matches!(self.tasks[id.index()].op, CurrentOp::Fetch)
                        || self.fetch_op(pos, id)
                    {
                        self.exec_tick(pos);
                    }
                    self.done_us[pos] = t + tick;
                    self.plan(pos);
                }
            });
            self.cursor = 0;
            self.now_us = t + tick;
            if self.now_us >= self.next_balance_us {
                self.balance();
                self.next_balance_us = self.now_us + self.params.balance_interval_us;
            }
        }
        for_each_set_bit!(self.busy_mask, pos, {
            self.catch_up(pos);
        });
    }

    /// Runs CPU `pos`'s owed quiet ticks, up to where the naive stepper
    /// stands at this point of the tick: past the tick for positions
    /// below the one executing, before it for the rest. The same charges
    /// and `f64` progress ([`sub_ticks`]) as that many calls to
    /// `exec_tick`, minus the decisions [`Self::plan`] proved absent.
    fn catch_up(&mut self, pos: usize) {
        let Some(id) = self.cpus[pos].current else {
            return;
        };
        let tick = self.params.tick_us;
        let until = self.now_us + if pos < self.cursor { tick } else { 0 };
        let done = self.done_us[pos];
        if done >= until {
            return;
        }
        debug_assert!(self.due_us[pos] >= until, "catch_up over a decision");
        self.done_us[pos] = until;
        let charge = until - done;
        let progress = tick as f64 * self.cpu_speed(pos);
        let task = &mut self.tasks[id.index()];
        task.slice_used_us += charge;
        let kernel = match &mut task.op {
            CurrentOp::Compute { remaining_us } | CurrentOp::Syscall { remaining_us } => {
                sub_ticks(remaining_us, progress, charge / tick);
                matches!(task.op, CurrentOp::Syscall { .. })
            }
            CurrentOp::BarrierSpin { block_at_us, .. } => {
                *block_at_us = block_at_us.saturating_sub(charge);
                false
            }
            other => unreachable!("catch_up on op {other:?}"),
        };
        if kernel {
            task.counters.stime_us += charge;
            self.cpus[pos].system_us += charge;
        } else {
            task.counters.utime_us += charge;
            self.cpus[pos].user_us += charge;
        }
    }

    /// Plans the tick of busy CPU `pos`'s next decision from its state at
    /// `done_us[pos]`: its op finishing (the tick per-tick `f64`
    /// subtraction finds, [`ticks_to_finish`]), its slice expiring while a
    /// waiter is queued, or its
    /// spin ending (released, yielding to a waiter, or out of budget).
    /// Valid while its SMT sibling, runqueue and barrier stay as they
    /// are; whatever changes those re-plans it. A plan may be early (the
    /// CPU then steps a quiet tick and re-plans), never late.
    fn plan(&mut self, pos: usize) {
        let from = self.done_us[pos];
        let Some(id) = self.cpus[pos].current else {
            self.due_us[pos] = u64::MAX;
            return;
        };
        let tick = self.params.tick_us;
        let task = &self.tasks[id.index()];
        let queued = !self.cpus[pos].runqueue.is_empty();
        let quiet = if self.trace.is_some() {
            0
        } else {
            match &task.op {
                CurrentOp::Compute { remaining_us } | CurrentOp::Syscall { remaining_us } => {
                    // With a waiter, the slice expires after `cap` quiet
                    // ticks (`exec_tick` adds the tick, then compares).
                    let cap = if queued {
                        let slice = self.params.timeslice_us(self.cpus[pos].nr_running());
                        slice
                            .saturating_sub(task.slice_used_us)
                            .div_ceil(tick)
                            .saturating_sub(1)
                    } else {
                        u64::MAX
                    };
                    ticks_to_finish(*remaining_us, tick as f64 * self.cpu_speed(pos), cap)
                }
                CurrentOp::BarrierSpin {
                    barrier,
                    generation,
                    block_at_us,
                } => {
                    let released = self
                        .barriers
                        .get(&(task.pid, *barrier))
                        .is_none_or(|b| b.generation != *generation);
                    if queued || released {
                        0
                    } else {
                        block_at_us.div_ceil(tick).saturating_sub(1)
                    }
                }
                // Fetch: the next op is unknown until the tick installs it.
                _ => 0,
            }
        };
        self.due_us[pos] = from.saturating_add(quiet.saturating_mul(tick));
    }

    /// True once every non-service task has exited.
    pub fn apps_done(&self) -> bool {
        self.alive_app_tasks == 0
    }

    /// Runs until all non-service tasks exit, up to `max_us`. Returns the
    /// completion time (µs) or `None` on timeout.
    ///
    /// Completion is detected exactly, at the tick the last application
    /// task exits: exits happen only on stepped ticks.
    pub fn run_until_apps_done(&mut self, max_us: u64) -> Option<u64> {
        let deadline = self.now_us + max_us;
        while !self.apps_done() {
            if self.now_us >= deadline {
                return None;
            }
            self.run_for_inner(deadline - self.now_us, true);
        }
        Some(self.now_us)
    }

    // ----- observation ----------------------------------------------------

    /// Total context switches (for `/proc/stat`'s `ctxt`).
    pub fn ctxt_total(&self) -> u64 {
        self.ctxt_total
    }

    /// Per-CPU `(os_index, user_us, system_us, idle_us)` accounting.
    /// Idle time is derived: a hardware thread is idle whenever it is not
    /// executing user or kernel work.
    pub fn cpu_times_us(&self) -> Vec<(u32, u64, u64, u64)> {
        self.cpu_times_iter().collect()
    }

    /// Iterator form of [`Self::cpu_times_us`] — the sampling hot path
    /// streams the rows into a render buffer without the intermediate
    /// vector.
    pub fn cpu_times_iter(&self) -> impl Iterator<Item = (u32, u64, u64, u64)> + '_ {
        self.cpus.iter().map(|c| {
            let busy = c.user_us + c.system_us;
            (
                c.os_index,
                c.user_us,
                c.system_us,
                self.now_us.saturating_sub(busy),
            )
        })
    }

    /// Sum of all process RSS at the current time, KiB.
    pub fn processes_rss_kib(&self) -> u64 {
        self.processes
            .values()
            .map(|p| p.memory.rss_kib(self.now_us))
            .sum()
    }

    /// Snapshot of a device's activity (advances its busy accounting).
    pub fn device_snapshot(&mut self, device: u32) -> DeviceSnapshot {
        let now = self.now_us;
        let dev = self.devices.entry(device).or_default();
        dev.advance(now);
        DeviceSnapshot {
            busy_us: dev.busy_us,
            mem_used_bytes: dev.mem_used_bytes,
            mem_peak_bytes: dev.mem_peak_bytes,
            kernels_launched: dev.kernels_launched,
            now_us: now,
        }
    }

    /// Device indices that have seen any activity.
    pub fn active_devices(&self) -> Vec<u32> {
        self.devices.keys().copied().collect()
    }

    /// Counters of every task of a process, as `(tid, name, counters)`.
    pub fn process_task_counters(&self, pid: Pid) -> Vec<(Tid, String, TaskCounters)> {
        self.processes
            .get(&pid)
            .map(|p| {
                p.tasks
                    .iter()
                    .map(|&id| {
                        let t = &self.tasks[id.index()];
                        (t.tid, t.name.to_string(), t.counters)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::WorkerSpec;
    use zerosum_topology::presets;

    fn small_node() -> NodeSim {
        NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default())
    }

    #[test]
    fn finite_compute_completes_and_accounts() {
        let mut sim = small_node();
        let pid = sim.spawn_process(
            "app",
            CpuSet::single(0),
            1024,
            Behavior::FiniteCompute {
                remaining_us: 10_000,
                chunk_us: 1_000,
            },
        );
        let done = sim.run_until_apps_done(1_000_000).expect("finishes");
        assert!((10_000..20_000).contains(&done), "done at {done}");
        let t = sim.task_by_tid(pid).unwrap();
        assert!(t.is_exited());
        assert!(t.counters.utime_us >= 10_000);
        assert_eq!(t.counters.nvcsw, 0);
    }

    #[test]
    fn two_tasks_share_one_cpu_with_preemption() {
        let mut sim = small_node();
        let pid = sim.spawn_process(
            "app",
            CpuSet::single(0),
            1024,
            Behavior::FiniteCompute {
                remaining_us: 50_000,
                chunk_us: 50_000,
            },
        );
        sim.spawn_task(
            pid,
            "second",
            None,
            Behavior::FiniteCompute {
                remaining_us: 50_000,
                chunk_us: 50_000,
            },
            false,
        );
        let done = sim.run_until_apps_done(10_000_000).expect("finishes");
        // Serialized on one CPU: ~100 ms.
        assert!((100_000..120_000).contains(&done), "done at {done}");
        // Both tasks were preempted at least once.
        let total_nvcsw: u64 = sim
            .process_task_counters(pid)
            .iter()
            .map(|(_, _, c)| c.nvcsw)
            .sum();
        assert!(total_nvcsw >= 2, "nvcsw {total_nvcsw}");
    }

    #[test]
    fn two_tasks_on_two_cpus_run_in_parallel() {
        let mut sim = small_node();
        let pid = sim.spawn_process(
            "app",
            CpuSet::from_indices([0u32, 1]),
            1024,
            Behavior::FiniteCompute {
                remaining_us: 50_000,
                chunk_us: 50_000,
            },
        );
        sim.spawn_task(
            pid,
            "second",
            None,
            Behavior::FiniteCompute {
                remaining_us: 50_000,
                chunk_us: 50_000,
            },
            false,
        );
        let done = sim.run_until_apps_done(10_000_000).expect("finishes");
        assert!((50_000..70_000).contains(&done), "done at {done}");
    }

    #[test]
    fn sleeping_fast_forwards() {
        let mut sim = small_node();
        sim.spawn_process("poller", CpuSet::single(0), 64, Behavior::Sleeper);
        // Nothing runnable after the initial sleep op: time must still pass
        // quickly.
        sim.run_for(10_000_000);
        assert_eq!(sim.now_us(), 10_000_000);
        let (_, user, system, idle) = sim.cpu_times_us()[0];
        assert!(user + system < 1_000);
        assert!(idle > 9_900_000);
    }

    #[test]
    fn barrier_team_synchronizes() {
        let mut sim = small_node();
        let mask = CpuSet::from_indices([0u32, 1, 2, 3]);
        let mk = |iters: u32, work: u64| {
            Behavior::worker(WorkerSpec {
                iterations: iters,
                work_per_iter_us: work,
                noise_frac: 0.0,
                sys_per_iter_us: 0,
                leader_extra_us: 0,
                checkpoint_every: 0,
                checkpoint_extra_us: 0,
                is_leader: false,
                barrier: Some(1),
                offload: None,
            })
        };
        let pid = sim.spawn_process("app", mask, 1024, mk(5, 10_000));
        for _ in 0..3 {
            sim.spawn_task(pid, "worker", None, mk(5, 10_000), false);
        }
        let done = sim.run_until_apps_done(10_000_000).expect("finishes");
        // 5 iterations × 10 ms, 4 workers on 4 cpus ⇒ ~50 ms.
        assert!((50_000..80_000).contains(&done), "done at {done}");
    }

    #[test]
    fn unbalanced_barrier_waiters_spin_then_block() {
        let mut sim = NodeSim::new(
            presets::laptop_i7_1165g7(),
            SchedParams {
                barrier_spin_us: 2_000,
                ..SchedParams::default()
            },
        );
        let mask = CpuSet::from_indices([0u32, 1]);
        // Leader does 40 ms of serial work per iteration; the other worker
        // waits far beyond its 2 ms spin budget and must block.
        let leader = Behavior::worker(WorkerSpec {
            iterations: 3,
            work_per_iter_us: 40_000,
            noise_frac: 0.0,
            sys_per_iter_us: 0,
            leader_extra_us: 0,
            checkpoint_every: 0,
            checkpoint_extra_us: 0,
            is_leader: true,
            barrier: Some(9),
            offload: None,
        });
        let worker = Behavior::worker(WorkerSpec {
            iterations: 3,
            work_per_iter_us: 1_000,
            noise_frac: 0.0,
            sys_per_iter_us: 0,
            leader_extra_us: 0,
            checkpoint_every: 0,
            checkpoint_extra_us: 0,
            is_leader: false,
            barrier: Some(9),
            offload: None,
        });
        let pid = sim.spawn_process("app", mask, 1024, leader);
        let wtid = sim.spawn_task(pid, "w", None, worker, false);
        sim.run_until_apps_done(10_000_000).expect("finishes");
        let w = sim.task_by_tid(wtid).unwrap();
        // Blocked once per iteration (voluntary switches).
        assert!(w.counters.vcsw >= 3, "vcsw {}", w.counters.vcsw);
        // And spun ~2 ms per iteration (utime > pure work).
        assert!(w.counters.utime_us >= 3 * (1_000 + 2_000) - 1_000);
    }

    #[test]
    fn oversubscription_spin_yield_generates_nvcsw() {
        let mut sim = small_node();
        let mask = CpuSet::single(0);
        let mk = |lead: bool| {
            Behavior::worker(WorkerSpec {
                iterations: 10,
                work_per_iter_us: 5_000,
                noise_frac: 0.05,
                sys_per_iter_us: 0,
                leader_extra_us: if lead { 2_000 } else { 0 },
                checkpoint_every: 0,
                checkpoint_extra_us: 0,
                is_leader: lead,
                barrier: Some(1),
                offload: None,
            })
        };
        let pid = sim.spawn_process("app", mask, 1024, mk(true));
        for _ in 0..3 {
            sim.spawn_task(pid, "w", None, mk(false), false);
        }
        sim.run_until_apps_done(60_000_000).expect("finishes");
        let counters = sim.process_task_counters(pid);
        let total_nvcsw: u64 = counters.iter().map(|(_, _, c)| c.nvcsw).sum();
        let total_vcsw: u64 = counters.iter().map(|(_, _, c)| c.vcsw).sum();
        // Massive involuntary churn, little voluntary (Table 1's shape).
        assert!(total_nvcsw > 100, "nvcsw {total_nvcsw}");
        assert!(total_vcsw < total_nvcsw / 5, "vcsw {total_vcsw}");
    }

    #[test]
    fn idle_steal_migrates_unbound_tasks() {
        let mut sim = NodeSim::new(
            presets::laptop_i7_1165g7(),
            SchedParams {
                barrier_spin_us: 500,
                ..SchedParams::default()
            },
        );
        let mask = CpuSet::from_indices([0u32, 1]);
        // Two long workers plus one short-iteration worker that blocks at
        // its own pace; when a CPU idles it steals the queued worker.
        let long = Behavior::FiniteCompute {
            remaining_us: 100_000,
            chunk_us: 100_000,
        };
        let pid = sim.spawn_process("app", mask.clone(), 1024, long.clone());
        sim.spawn_task(pid, "b", Some(mask.clone()), long.clone(), false);
        sim.spawn_task(pid, "c", Some(mask), long, false);
        sim.run_until_apps_done(10_000_000).expect("finishes");
        let migs: u64 = sim
            .process_task_counters(pid)
            .iter()
            .map(|(_, _, c)| c.migrations)
            .sum();
        assert!(migs >= 1, "migrations {migs}");
    }

    #[test]
    fn smt_sharing_slows_progress_but_not_cpu_time() {
        let mut sim = small_node();
        // PUs 0 and 4 are SMT siblings on the laptop preset.
        let pid = sim.spawn_process(
            "a",
            CpuSet::single(0),
            64,
            Behavior::FiniteCompute {
                remaining_us: 50_000,
                chunk_us: 50_000,
            },
        );
        let _ = pid;
        sim.spawn_process(
            "b",
            CpuSet::single(4),
            64,
            Behavior::FiniteCompute {
                remaining_us: 50_000,
                chunk_us: 50_000,
            },
        );
        let done = sim.run_until_apps_done(10_000_000).expect("finishes");
        // Both PUs busy: each progresses at smt_efficiency/2 ≈ 0.525 ⇒
        // ~95 ms rather than 50 ms.
        assert!(done > 80_000, "done at {done}");
        assert!(done < 120_000, "done at {done}");
    }

    #[test]
    fn offload_blocks_and_devices_account() {
        let mut sim = small_node();
        let spec = WorkerSpec {
            iterations: 4,
            work_per_iter_us: 1_000,
            noise_frac: 0.0,
            sys_per_iter_us: 0,
            leader_extra_us: 0,
            checkpoint_every: 0,
            checkpoint_extra_us: 0,
            is_leader: false,
            barrier: None,
            offload: Some(crate::behavior::OffloadSpec {
                device: 2,
                launch_us: 100,
                kernel_us: 5_000,
                sync_us: 50,
                bytes: 1 << 30,
            }),
        };
        let pid = sim.spawn_process("gpuapp", CpuSet::single(0), 1024, Behavior::worker(spec));
        let done = sim.run_until_apps_done(10_000_000).expect("finishes");
        // Each iteration ≈ 1 ms compute + 5 ms kernel wait.
        assert!(done >= 4 * 6_000, "done at {done}");
        let snap = sim.device_snapshot(2);
        assert_eq!(snap.kernels_launched, 4);
        assert!(snap.busy_us >= 20_000);
        assert_eq!(snap.mem_used_bytes, 1 << 30);
        // The waiting task accrued idle (blocked) time: CPU time ≪ wall.
        let t = sim.task_by_tid(pid).unwrap();
        assert!(t.cpu_us() < done / 2);
        // Offload waits are voluntary switches.
        assert!(t.counters.vcsw >= 4);
    }

    #[test]
    fn helper_thread_wide_mask_low_usage() {
        let mut sim = small_node();
        let pid = sim.spawn_process(
            "app",
            CpuSet::single(0),
            64,
            Behavior::FiniteCompute {
                remaining_us: 2_000_000,
                chunk_us: 10_000,
            },
        );
        let all = sim.topology().complete_cpuset().clone();
        let helper = sim.spawn_task(
            pid,
            "helper",
            Some(all),
            Behavior::helper_poll(500_000, 200),
            true,
        );
        sim.run_until_apps_done(60_000_000).expect("finishes");
        let h = sim.task_by_tid(helper).unwrap();
        assert!(h.counters.stime_us < 5_000);
        assert!(h.counters.vcsw >= 3);
    }

    #[test]
    fn set_affinity_takes_effect() {
        let mut sim = small_node();
        let pid = sim.spawn_process(
            "app",
            CpuSet::from_indices([0u32, 1]),
            64,
            Behavior::FiniteCompute {
                remaining_us: 100_000,
                chunk_us: 1_000,
            },
        );
        sim.run_for(10_000);
        sim.set_task_affinity(pid, CpuSet::single(1));
        sim.run_until_apps_done(10_000_000).expect("finishes");
        let t = sim.task_by_tid(pid).unwrap();
        assert_eq!(t.last_cpu, 1);
        assert_eq!(t.affinity.to_list_string(), "1");
    }

    #[test]
    fn grid_arithmetic_equals_per_tick_subtraction() {
        // 26.25 is the default shared-core progress, 27.500000000000004
        // that of `smt_efficiency` 1.1: on and off the grid.
        for progress in [50.0, 26.25, 27.500000000000004, 0.1] {
            for start in [0.0, 1.0, 26.25, 49.0, 50.0, 7_000.0, 35_123.0, 1e6 + 0.5] {
                let mut stepped = start;
                let mut n = 0;
                loop {
                    stepped -= progress;
                    if stepped <= 0.0 {
                        break;
                    }
                    n += 1;
                }
                // Off the grid the plan may stop early, never late.
                let planned = ticks_to_finish(start, progress, u64::MAX);
                let capped = on_grid(progress).is_none() && planned == 4_096;
                assert!(
                    planned == n || (capped && n > 4_096),
                    "{start} / {progress}"
                );
                assert_eq!(ticks_to_finish(start, progress, 3), n.min(3));
                for k in [0, n / 2, n] {
                    let mut left = start;
                    sub_ticks(&mut left, progress, k);
                    let mut each = start;
                    (0..k).for_each(|_| each -= progress);
                    assert_eq!(left.to_bits(), each.to_bits(), "{start} - {k} × {progress}");
                }
            }
        }
    }

    #[test]
    fn meminfo_reflects_process_rss() {
        let mut sim = small_node();
        sim.spawn_process(
            "fat",
            CpuSet::single(0),
            1_000_000, // ~1 GiB
            Behavior::FiniteCompute {
                remaining_us: 3_000_000,
                chunk_us: 10_000,
            },
        );
        sim.run_for(2_000_000);
        let rss = sim.processes_rss_kib();
        assert_eq!(rss, 1_000_000);
        let mi = sim.memory.meminfo(rss);
        assert!(mi.mem_available_kib < mi.mem_total_kib - 900_000);
    }
}

#[cfg(test)]
mod wait_accounting_tests {
    use super::*;
    use crate::behavior::Behavior;
    use crate::params::SchedParams;
    use zerosum_topology::presets;

    #[test]
    fn shared_core_accrues_wait_time() {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let pid = sim.spawn_process(
            "a",
            CpuSet::single(0),
            64,
            Behavior::FiniteCompute {
                remaining_us: 60_000,
                chunk_us: 60_000,
            },
        );
        sim.spawn_task(
            pid,
            "b",
            None,
            Behavior::FiniteCompute {
                remaining_us: 60_000,
                chunk_us: 60_000,
            },
            false,
        );
        sim.run_until_apps_done(10_000_000).expect("finishes");
        let total_wait: u64 = sim
            .process_task_counters(pid)
            .iter()
            .map(|(_, _, c)| c.wait_us)
            .sum();
        // Two 60 ms tasks time-slicing one CPU: combined waiting roughly
        // equals the serialized excess (~60 ms), certainly above 40 ms.
        assert!(total_wait > 40_000, "wait {total_wait}");
        let dispatches: u64 = sim
            .process_task_counters(pid)
            .iter()
            .map(|(_, _, c)| c.dispatches)
            .sum();
        assert!(dispatches >= 2);
    }

    #[test]
    fn dedicated_cores_wait_almost_nothing() {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let pid = sim.spawn_process(
            "a",
            CpuSet::single(0),
            64,
            Behavior::FiniteCompute {
                remaining_us: 60_000,
                chunk_us: 60_000,
            },
        );
        sim.spawn_task(
            pid,
            "b",
            Some(CpuSet::single(1)),
            Behavior::FiniteCompute {
                remaining_us: 60_000,
                chunk_us: 60_000,
            },
            false,
        );
        sim.run_until_apps_done(10_000_000).expect("finishes");
        let total_wait: u64 = sim
            .process_task_counters(pid)
            .iter()
            .map(|(_, _, c)| c.wait_us)
            .sum();
        assert!(total_wait < 1_000, "wait {total_wait}");
    }
}
