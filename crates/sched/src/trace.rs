//! Structured event tracing of the scheduler substrate.
//!
//! Every number the experiment harnesses derive from [`NodeSim`] —
//! context switches, migrations, per-HWT jiffies — is an aggregate of
//! discrete scheduler decisions. When tracing is enabled the simulator
//! emits one [`TraceRecord`] per decision, giving `zerosum-analyze` a
//! ground-truth log it can replay against the final counters: an
//! invariant engine proves that the aggregates are self-consistent (no lost update, no double-scheduled
//! task, no affinity-violating migration).
//!
//! Tracing is off by default and costs one branch per decision when off;
//! no event is constructed unless a buffer is installed.
//!
//! [`NodeSim`]: crate::node::NodeSim

use crate::task::TaskCounters;
use std::sync::Arc;
use zerosum_proc::{Pid, Tid};
use zerosum_topology::CpuSet;

/// Which CPU-time account a tick charge goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeKind {
    /// User-mode time (`utime`).
    User,
    /// Kernel-mode time (`stime`).
    System,
}

/// One structured scheduler event.
///
/// CPU fields are OS hardware-thread indices. Events are recorded in
/// simulation order; records at equal `t_us` happened within one tick,
/// in the order the engine processed them.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A task was created in `pid` with the given affinity mask.
    Spawn {
        /// Thread id of the new task.
        tid: Tid,
        /// Owning process.
        pid: Pid,
        /// Initial affinity mask.
        affinity: CpuSet,
    },
    /// A queued task was removed from `cpu`'s runqueue for
    /// re-placement (affinity change while runnable).
    Dequeue {
        /// The task.
        tid: Tid,
        /// Runqueue it was removed from.
        cpu: u32,
    },
    /// A runnable task was placed on `cpu`'s runqueue.
    Enqueue {
        /// The task.
        tid: Tid,
        /// Runqueue it was pushed to.
        cpu: u32,
    },
    /// A task started executing on `cpu`.
    Dispatch {
        /// The task.
        tid: Tid,
        /// The CPU it now occupies.
        cpu: u32,
    },
    /// A dispatch landed on a different CPU than the task's previous one.
    Migrate {
        /// The task.
        tid: Tid,
        /// CPU it last ran on.
        from: u32,
        /// CPU it is starting on.
        to: u32,
    },
    /// A waiting task was pulled from one runqueue to another
    /// (new-idle / periodic balancing).
    Steal {
        /// The task.
        tid: Tid,
        /// Donor runqueue.
        from: u32,
        /// Receiving runqueue.
        to: u32,
    },
    /// The task was preempted (or spin-yielded) while runnable — a
    /// non-voluntary context switch.
    Preempt {
        /// The task.
        tid: Tid,
        /// CPU it was taken off.
        cpu: u32,
    },
    /// The task left the CPU voluntarily (sleep, barrier block, GPU
    /// wait) — a voluntary context switch.
    Block {
        /// The task.
        tid: Tid,
        /// CPU it was running on.
        cpu: u32,
    },
    /// The task was taken off its CPU because its affinity mask changed
    /// to exclude that CPU. Counts as neither a voluntary nor a
    /// non-voluntary switch (mirrors `sched_setaffinity`).
    Deschedule {
        /// The task.
        tid: Tid,
        /// CPU it was forced off.
        cpu: u32,
    },
    /// A blocked task became runnable. `waker_cpu` is the CPU whose
    /// current task released it (barrier release); `None` for timer and
    /// device-completion wakes delivered by the engine itself.
    Wake {
        /// The task.
        tid: Tid,
        /// Releasing CPU, if the wake came from another task.
        waker_cpu: Option<u32>,
    },
    /// One tick of CPU time was charged to a task.
    JiffyCharge {
        /// The task.
        tid: Tid,
        /// CPU that executed the tick.
        cpu: u32,
        /// User or system account.
        kind: ChargeKind,
        /// Amount charged, µs.
        us: u64,
    },
    /// A task's affinity mask changed at runtime.
    AffinityChange {
        /// The task.
        tid: Tid,
        /// The new mask.
        affinity: CpuSet,
    },
    /// A kernel was enqueued on a device; the issuing task blocks until
    /// `complete_at_us`.
    GpuEnqueue {
        /// The issuing task.
        tid: Tid,
        /// Device index.
        device: u32,
        /// Kernel execution time, µs.
        kernel_us: u64,
        /// Virtual completion time, µs.
        complete_at_us: u64,
    },
    /// A previously enqueued kernel completed and its issuing task is
    /// about to be woken.
    GpuComplete {
        /// The issuing task.
        tid: Tid,
        /// Device index.
        device: u32,
    },
    /// The task exited.
    Exit {
        /// The task.
        tid: Tid,
        /// CPU it exited on.
        cpu: u32,
    },
}

impl TraceEvent {
    /// The task the event concerns.
    pub fn tid(&self) -> Tid {
        match *self {
            TraceEvent::Spawn { tid, .. }
            | TraceEvent::Dequeue { tid, .. }
            | TraceEvent::Enqueue { tid, .. }
            | TraceEvent::Dispatch { tid, .. }
            | TraceEvent::Migrate { tid, .. }
            | TraceEvent::Steal { tid, .. }
            | TraceEvent::Preempt { tid, .. }
            | TraceEvent::Block { tid, .. }
            | TraceEvent::Deschedule { tid, .. }
            | TraceEvent::Wake { tid, .. }
            | TraceEvent::JiffyCharge { tid, .. }
            | TraceEvent::AffinityChange { tid, .. }
            | TraceEvent::GpuEnqueue { tid, .. }
            | TraceEvent::GpuComplete { tid, .. }
            | TraceEvent::Exit { tid, .. } => tid,
        }
    }
}

/// One timestamped scheduler event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of the event, µs.
    pub t_us: u64,
    /// The event.
    pub ev: TraceEvent,
}

/// Final per-task state, snapshotted for the invariant engine.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskAudit {
    /// Thread id.
    pub tid: Tid,
    /// Owning process.
    pub pid: Pid,
    /// Thread name (shared with the simulator's interned name).
    pub name: Arc<str>,
    /// Affinity mask at snapshot time.
    pub affinity: CpuSet,
    /// Cumulative counters.
    pub counters: TaskCounters,
    /// True if the task exited.
    pub exited: bool,
    /// True for infrastructure tasks.
    pub service: bool,
}

/// A snapshot of the simulator's aggregate accounting, taken after a
/// run. The invariant engine replays the event trace and reconciles it
/// against this.
#[derive(Debug, Clone, PartialEq)]
pub struct SimAudit {
    /// Virtual time of the snapshot, µs.
    pub now_us: u64,
    /// Tick granularity, µs.
    pub tick_us: u64,
    /// Total context switches (`/proc/stat` `ctxt`).
    pub ctxt_total: u64,
    /// Per-CPU `(os_index, user_us, system_us, idle_us)`.
    pub cpus: Vec<(u32, u64, u64, u64)>,
    /// Every task ever spawned.
    pub tasks: Vec<TaskAudit>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_accessor_covers_all_variants() {
        let evs = [
            TraceEvent::Enqueue { tid: 7, cpu: 0 },
            TraceEvent::Dispatch { tid: 7, cpu: 0 },
            TraceEvent::Preempt { tid: 7, cpu: 0 },
            TraceEvent::Block { tid: 7, cpu: 0 },
            TraceEvent::Wake {
                tid: 7,
                waker_cpu: None,
            },
            TraceEvent::JiffyCharge {
                tid: 7,
                cpu: 0,
                kind: ChargeKind::User,
                us: 50,
            },
            TraceEvent::Exit { tid: 7, cpu: 0 },
        ];
        assert!(evs.iter().all(|e| e.tid() == 7));
    }
}
