//! # zerosum-proc
//!
//! The `/proc` virtual-filesystem substrate for ZeroSum-rs.
//!
//! §3.1 of the paper bases all of ZeroSum's configuration detection and
//! periodic sampling on the Linux `/proc` pseudo-filesystem: task discovery
//! via `/proc/<pid>/task`, per-LWP timing and state via `stat`/`status`,
//! system CPU counters via `/proc/stat`, and the memory subsystem via
//! `/proc/meminfo`. This crate provides:
//!
//! * [`types`] — typed records for those files (jiffies, task states,
//!   affinity lists, context-switch counters, …).
//! * [`parse`] — parsers for the kernel's text formats, including the
//!   parenthesized-`comm` hazard of `stat`.
//! * [`mod@format`] — the inverse generators, used by the simulated backend so
//!   the monitor always exercises the real parsers.
//! * [`source::ProcSource`] — the trait boundary the monitor observes
//!   through; [`linux::LinuxProc`] is the live-system implementation.
//! * [`fault`] — a deterministic, seeded fault injector wrapping any
//!   source, used by the chaos harness to prove graceful degradation.
//! * [`arena`] — the batched raw-text read path: per-shard record
//!   arenas the sampling round reads whole task slices into.

#![warn(missing_docs)]

pub mod arena;
pub mod fault;
pub mod format;
pub mod linux;
pub mod parse;
pub mod source;
pub mod types;

// The `str`-based reference parsers and the differential against them
// live with the workspace's integration tests, which share them; the
// file names this crate from outside.
#[cfg(test)]
extern crate self as zerosum_proc;
// So do the parked threads of the tests that watch their own process.
#[cfg(test)]
#[path = "../../../tests/live_threads/mod.rs"]
mod live_threads;
#[cfg(test)]
#[path = "../../../tests/oracle/mod.rs"]
mod oracle;

pub use arena::{ArenaSpan, ReadArena};
pub use fault::{
    ExitRace, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRates, FaultyProc, Op,
    ScriptedFault,
};
pub use linux::LinuxProc;
pub use parse::TaskStatView;
pub use source::{ProcSource, SourceError, SourceErrorKind, SourceResult};
pub use types::{
    CpuTimes, IntHash, Jiffies, MemInfo, Pid, SchedStat, SystemStat, TaskStat, TaskState,
    TaskStatus, Tid, USER_HZ,
};

// Property tests need the crates.io `proptest` crate; the container
// builds fully offline, so they are opt-in behind the no-op `proptests`
// feature (add `proptest` back to [dev-dependencies] to enable).
#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use crate::types::*;
    use crate::{format, parse};
    use proptest::prelude::*;
    use zerosum_topology::CpuSet;

    fn arb_state() -> impl Strategy<Value = TaskState> {
        prop_oneof![
            Just(TaskState::Running),
            Just(TaskState::Sleeping),
            Just(TaskState::DiskSleep),
            Just(TaskState::Zombie),
            Just(TaskState::Stopped),
            Just(TaskState::Idle),
            Just(TaskState::Dead),
            Just(TaskState::Parked),
        ]
    }

    proptest! {
        #[test]
        fn task_stat_roundtrips(
            tid in 1u32..1_000_000,
            comm in "[a-zA-Z0-9 _()-]{1,15}",
            state in arb_state(),
            minflt in 0u64..u32::MAX as u64,
            majflt in 0u64..1_000_000,
            utime in 0u64..u32::MAX as u64,
            stime in 0u64..u32::MAX as u64,
            nice in -20i32..20,
            num_threads in 1u32..10_000,
            processor in 0u32..256,
        ) {
            let t = TaskStat {
                tid, comm, state, minflt, majflt, utime, stime, nice,
                num_threads, processor, nswap: 0, starttime: 0,
            };
            let back = parse::parse_task_stat(&format::format_task_stat(&t)).unwrap();
            prop_assert_eq!(back, t);
        }

        #[test]
        fn task_status_roundtrips(
            tid in 1u32..1_000_000,
            tgid in 1u32..1_000_000,
            name in "[a-zA-Z0-9_-]{1,15}",
            state in arb_state(),
            rss in 0u64..u32::MAX as u64,
            cpus in proptest::collection::btree_set(0u32..256, 0..32),
            vol in 0u64..u32::MAX as u64,
            nonvol in 0u64..u32::MAX as u64,
        ) {
            let s = TaskStatus {
                name, tid, tgid, state,
                vm_rss_kib: rss, vm_size_kib: rss * 2, vm_hwm_kib: rss,
                cpus_allowed: CpuSet::from_indices(cpus),
                voluntary_ctxt_switches: vol,
                nonvoluntary_ctxt_switches: nonvol,
            };
            let back = parse::parse_task_status(&format::format_task_status(&s)).unwrap();
            prop_assert_eq!(back, s);
        }

        #[test]
        fn system_stat_roundtrips(
            ncpu in 1usize..64,
            seed in 0u64..1_000_000,
        ) {
            let mk = |i: u64| CpuTimes {
                user: seed.wrapping_mul(i + 1) % 100_000,
                nice: i % 7,
                system: (seed + i) % 50_000,
                idle: (seed ^ i) % 1_000_000,
                iowait: i % 13,
                irq: i % 3,
                softirq: i % 5,
                steal: 0,
            };
            let cpus: Vec<(u32, CpuTimes)> =
                (0..ncpu).map(|i| (i as u32, mk(i as u64))).collect();
            let total = cpus.iter().fold(CpuTimes::default(), |acc, (_, t)| acc.add(t));
            let s = SystemStat { total, cpus, ctxt: seed, processes: seed % 100_000 };
            let back = parse::parse_system_stat(&format::format_system_stat(&s)).unwrap();
            prop_assert_eq!(back, s);
        }
    }
}
