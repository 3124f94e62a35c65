//! Typed records of the `/proc` data ZeroSum consumes.
//!
//! The monitor reads five kinds of records, mirroring §3.1 of the paper:
//! the system-wide CPU jiffy counters (`/proc/stat`), the memory subsystem
//! (`/proc/meminfo`), the task list (`/proc/<pid>/task`), per-task
//! scheduling counters (`/proc/<pid>/task/<tid>/stat`), and per-task status
//! including affinity and context-switch counts
//! (`/proc/<pid>/task/<tid>/status`).

use zerosum_topology::CpuSet;

/// A process identifier.
pub type Pid = u32;
/// A lightweight-process (thread) identifier.
pub type Tid = u32;
/// CPU time in jiffies (USER_HZ ticks, 100 Hz like stock Linux).
pub type Jiffies = u64;

/// Jiffies per second in this model (Linux `USER_HZ`).
pub const USER_HZ: u64 = 100;

/// Build-hasher for small-integer keys (tids, CPU ids) on the sampling
/// hot path. The default `RandomState` pays a SipHash round per probe,
/// and a task sample probes half a dozen tid-keyed maps per round; this
/// hasher is a single xor-rotate-multiply. It is also deterministic
/// across runs — unlike `RandomState` — so tid-map iteration order can
/// never differ between two processes replaying the same schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHash;

/// Hasher state for [`IntHash`].
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

/// 2^64 / φ, the usual multiplicative-hashing constant: consecutive
/// keys land maximally far apart, and the odd constant makes the
/// multiply a bijection on `u64`.
const PHI64: u64 = 0x9E37_79B9_7F4A_7C15;

impl std::hash::Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(PHI64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(PHI64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

impl std::hash::BuildHasher for IntHash {
    type Hasher = IntHasher;

    fn build_hasher(&self) -> IntHasher {
        IntHasher(0)
    }
}

/// Scheduler state of a task, as reported in the `state` field of
/// `/proc/<pid>/stat` and the `State:` line of `status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// `R` — running or runnable.
    Running,
    /// `S` — interruptible sleep.
    Sleeping,
    /// `D` — uninterruptible (disk) sleep.
    DiskSleep,
    /// `Z` — zombie.
    Zombie,
    /// `T` — stopped.
    Stopped,
    /// `I` — idle kernel thread.
    Idle,
    /// `X` — dead.
    Dead,
    /// `P` — parked (Linux ≥ 3.9; a kthread between `kthread_park` and
    /// `kthread_unpark`, e.g. the per-CPU threads of an offlined CPU).
    Parked,
}

impl Default for TaskState {
    /// `S` — the state an otherwise-uninitialized record slot reports;
    /// sleeping is what most threads are at any instant.
    fn default() -> Self {
        TaskState::Sleeping
    }
}

impl TaskState {
    /// The single-character code used in `/proc/<pid>/stat`.
    pub fn code(self) -> char {
        match self {
            TaskState::Running => 'R',
            TaskState::Sleeping => 'S',
            TaskState::DiskSleep => 'D',
            TaskState::Zombie => 'Z',
            TaskState::Stopped => 'T',
            TaskState::Idle => 'I',
            TaskState::Dead => 'X',
            TaskState::Parked => 'P',
        }
    }

    /// Parses the single-character code.
    pub fn from_code(c: char) -> Option<TaskState> {
        Some(match c {
            'R' => TaskState::Running,
            'S' => TaskState::Sleeping,
            'D' => TaskState::DiskSleep,
            'Z' => TaskState::Zombie,
            'T' | 't' => TaskState::Stopped,
            'I' => TaskState::Idle,
            'X' | 'x' => TaskState::Dead,
            'P' => TaskState::Parked,
            _ => return None,
        })
    }

    /// The long name used in the `State:` line of `status`
    /// (e.g. `R (running)`).
    pub fn long_name(self) -> &'static str {
        match self {
            TaskState::Running => "running",
            TaskState::Sleeping => "sleeping",
            TaskState::DiskSleep => "disk sleep",
            TaskState::Zombie => "zombie",
            TaskState::Stopped => "stopped",
            TaskState::Idle => "idle",
            TaskState::Dead => "dead",
            TaskState::Parked => "parked",
        }
    }
}

/// Fields of `/proc/<pid>/task/<tid>/stat` that ZeroSum samples.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TaskStat {
    /// Thread id.
    pub tid: Tid,
    /// Executable / thread name (`comm`), without parentheses.
    pub comm: String,
    /// Scheduler state.
    pub state: TaskState,
    /// Minor page faults (no disk I/O required).
    pub minflt: u64,
    /// Major page faults (required loading a page from disk).
    pub majflt: u64,
    /// Time spent in user mode, jiffies.
    pub utime: Jiffies,
    /// Time spent in kernel mode, jiffies.
    pub stime: Jiffies,
    /// Nice value.
    pub nice: i32,
    /// Number of threads in the owning process.
    pub num_threads: u32,
    /// CPU (hardware thread OS index) this task last executed on —
    /// field 39 of `stat`, the source of the paper's migration tracking.
    pub processor: u32,
    /// Pages swapped (cumulative; zero on modern kernels but reported by
    /// ZeroSum's CSV export).
    pub nswap: u64,
    /// Time the task started after boot, in clock ticks — field 22 of
    /// `stat`. A tid whose `starttime` changes between samples is a
    /// *recycled* id belonging to a brand-new task, not a continuation
    /// of the old series.
    pub starttime: u64,
}

impl Clone for TaskStat {
    fn clone(&self) -> Self {
        TaskStat {
            comm: self.comm.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, src: &Self) {
        // Reuses the `comm` buffer — the monitor refreshes last-good
        // records every sample, so the derived `clone` would allocate
        // once per thread per period.
        self.comm.clone_from(&src.comm);
        let TaskStat {
            tid,
            comm: _,
            state,
            minflt,
            majflt,
            utime,
            stime,
            nice,
            num_threads,
            processor,
            nswap,
            starttime,
        } = *src;
        self.tid = tid;
        self.state = state;
        self.minflt = minflt;
        self.majflt = majflt;
        self.utime = utime;
        self.stime = stime;
        self.nice = nice;
        self.num_threads = num_threads;
        self.processor = processor;
        self.nswap = nswap;
        self.starttime = starttime;
    }
}

/// Fields of `/proc/<pid>/task/<tid>/status` that ZeroSum samples.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TaskStatus {
    /// Thread name (`Name:`).
    pub name: String,
    /// Thread id (`Pid:` line of a task's status).
    pub tid: Tid,
    /// Thread group id — the process pid (`Tgid:`).
    pub tgid: Pid,
    /// Scheduler state (`State:`).
    pub state: TaskState,
    /// Resident set size in KiB (`VmRSS:`, process-wide).
    pub vm_rss_kib: u64,
    /// Virtual memory size in KiB (`VmSize:`).
    pub vm_size_kib: u64,
    /// Peak RSS in KiB (`VmHWM:`).
    pub vm_hwm_kib: u64,
    /// Allowed CPU list (`Cpus_allowed_list:`).
    pub cpus_allowed: CpuSet,
    /// Voluntary context switches (`voluntary_ctxt_switches:`).
    pub voluntary_ctxt_switches: u64,
    /// Non-voluntary context switches (`nonvoluntary_ctxt_switches:`) —
    /// the paper's primary contention signal.
    pub nonvoluntary_ctxt_switches: u64,
}

impl Clone for TaskStatus {
    fn clone(&self) -> Self {
        TaskStatus {
            name: self.name.clone(),
            tid: self.tid,
            tgid: self.tgid,
            state: self.state,
            vm_rss_kib: self.vm_rss_kib,
            vm_size_kib: self.vm_size_kib,
            vm_hwm_kib: self.vm_hwm_kib,
            cpus_allowed: self.cpus_allowed.clone(),
            voluntary_ctxt_switches: self.voluntary_ctxt_switches,
            nonvoluntary_ctxt_switches: self.nonvoluntary_ctxt_switches,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        // Reuses the name buffer and the affinity mask's word vector.
        self.name.clone_from(&src.name);
        self.cpus_allowed.clone_from(&src.cpus_allowed);
        self.tid = src.tid;
        self.tgid = src.tgid;
        self.state = src.state;
        self.vm_rss_kib = src.vm_rss_kib;
        self.vm_size_kib = src.vm_size_kib;
        self.vm_hwm_kib = src.vm_hwm_kib;
        self.voluntary_ctxt_switches = src.voluntary_ctxt_switches;
        self.nonvoluntary_ctxt_switches = src.nonvoluntary_ctxt_switches;
    }
}

/// The scheduler statistics from `/proc/<pid>/task/<tid>/schedstat`:
/// three numbers — time on CPU, time runnable-but-waiting, and the number
/// of timeslices run. The wait time is the most direct contention signal
/// the kernel offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStat {
    /// Time spent on the CPU, nanoseconds.
    pub run_ns: u64,
    /// Time spent runnable on a runqueue, nanoseconds.
    pub wait_ns: u64,
    /// Number of timeslices run on this CPU.
    pub timeslices: u64,
}

/// The memory-subsystem snapshot from `/proc/meminfo` (values in KiB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemInfo {
    /// `MemTotal:` — total usable RAM.
    pub mem_total_kib: u64,
    /// `MemFree:` — unused RAM.
    pub mem_free_kib: u64,
    /// `MemAvailable:` — estimate of RAM available for new workloads.
    pub mem_available_kib: u64,
    /// `Buffers:`.
    pub buffers_kib: u64,
    /// `Cached:`.
    pub cached_kib: u64,
    /// `SwapTotal:`.
    pub swap_total_kib: u64,
    /// `SwapFree:`.
    pub swap_free_kib: u64,
}

impl MemInfo {
    /// Memory in use (total − available), KiB.
    pub fn used_kib(&self) -> u64 {
        self.mem_total_kib.saturating_sub(self.mem_available_kib)
    }
}

/// Per-CPU jiffy counters from one `cpuN` row of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTimes {
    /// Normal user-mode time.
    pub user: Jiffies,
    /// Niced user-mode time.
    pub nice: Jiffies,
    /// Kernel-mode time.
    pub system: Jiffies,
    /// Idle time.
    pub idle: Jiffies,
    /// I/O-wait time.
    pub iowait: Jiffies,
    /// Hard-interrupt time.
    pub irq: Jiffies,
    /// Soft-interrupt time.
    pub softirq: Jiffies,
    /// Involuntary wait (virtualized) time.
    pub steal: Jiffies,
}

impl CpuTimes {
    /// Sum of all accounted jiffies.
    pub fn total(&self) -> Jiffies {
        self.user
            + self.nice
            + self.system
            + self.idle
            + self.iowait
            + self.irq
            + self.softirq
            + self.steal
    }

    /// Element-wise sum.
    pub fn add(&self, other: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user: self.user + other.user,
            nice: self.nice + other.nice,
            system: self.system + other.system,
            idle: self.idle + other.idle,
            iowait: self.iowait + other.iowait,
            irq: self.irq + other.irq,
            softirq: self.softirq + other.softirq,
            steal: self.steal + other.steal,
        }
    }

    /// Element-wise saturating difference (`self − earlier`), used to turn
    /// two samples into a per-interval delta.
    pub fn delta(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user: self.user.saturating_sub(earlier.user),
            nice: self.nice.saturating_sub(earlier.nice),
            system: self.system.saturating_sub(earlier.system),
            idle: self.idle.saturating_sub(earlier.idle),
            iowait: self.iowait.saturating_sub(earlier.iowait),
            irq: self.irq.saturating_sub(earlier.irq),
            softirq: self.softirq.saturating_sub(earlier.softirq),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }
}

/// The system-wide snapshot from `/proc/stat`.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct SystemStat {
    /// The aggregate `cpu` row.
    pub total: CpuTimes,
    /// Per-CPU rows as `(os_index, times)`, ascending by index.
    pub cpus: Vec<(u32, CpuTimes)>,
    /// Total context switches (`ctxt`).
    pub ctxt: u64,
    /// Processes/threads created since boot (`processes`).
    pub processes: u64,
}

impl Clone for SystemStat {
    fn clone(&self) -> Self {
        SystemStat {
            total: self.total,
            cpus: self.cpus.clone(),
            ctxt: self.ctxt,
            processes: self.processes,
        }
    }

    /// Reuses the per-CPU vector — the monitor keeps a previous snapshot
    /// per sample, and a node has up to hundreds of rows.
    fn clone_from(&mut self, src: &Self) {
        self.total = src.total;
        self.cpus.clone_from(&src.cpus);
        self.ctxt = src.ctxt;
        self.processes = src.processes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_codes_roundtrip() {
        for s in [
            TaskState::Running,
            TaskState::Sleeping,
            TaskState::DiskSleep,
            TaskState::Zombie,
            TaskState::Stopped,
            TaskState::Idle,
            TaskState::Dead,
            TaskState::Parked,
        ] {
            assert_eq!(TaskState::from_code(s.code()), Some(s));
        }
        assert_eq!(TaskState::from_code('?'), None);
    }

    #[test]
    fn cputimes_total_and_delta() {
        let a = CpuTimes {
            user: 10,
            system: 5,
            idle: 85,
            ..Default::default()
        };
        let b = CpuTimes {
            user: 30,
            system: 10,
            idle: 160,
            ..Default::default()
        };
        assert_eq!(a.total(), 100);
        let d = b.delta(&a);
        assert_eq!((d.user, d.system, d.idle), (20, 5, 75));
        // Delta saturates rather than underflowing on counter resets.
        let d2 = a.delta(&b);
        assert_eq!((d2.user, d2.system, d2.idle), (0, 0, 0));
    }

    #[test]
    fn meminfo_used() {
        let m = MemInfo {
            mem_total_kib: 1000,
            mem_available_kib: 400,
            ..Default::default()
        };
        assert_eq!(m.used_kib(), 600);
    }
}
