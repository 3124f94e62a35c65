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

#![forbid(unsafe_code)]
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

#[cfg(test)]
#[path = "../../../tests/seeded/mod.rs"]
mod seeded;

/// `format` then `parse` is the identity over seeded records.
#[cfg(test)]
mod properties {
    use crate::seeded::Seeded;
    use crate::types::*;
    use crate::{format, parse};
    use zerosum_topology::CpuSet;

    const STATES: [TaskState; 8] = [
        TaskState::Running,
        TaskState::Sleeping,
        TaskState::DiskSleep,
        TaskState::Zombie,
        TaskState::Stopped,
        TaskState::Idle,
        TaskState::Dead,
        TaskState::Parked,
    ];

    /// 1 to 15 characters a `comm` may hold; parentheses and spaces too
    /// when `evil`.
    fn name(g: &mut Seeded, evil: bool) -> String {
        let glyphs: &[u8] = if evil {
            b"abcXYZ019 _()-"
        } else {
            b"abcXYZ019_-"
        };
        (0..g.in_range(1, 16))
            .map(|_| glyphs[g.in_range(0, glyphs.len() as u64) as usize] as char)
            .collect()
    }

    #[test]
    fn task_stat_round_trips() {
        let mut g = Seeded::new(0x9f0c_0001);
        for case in 0..512 {
            let t = TaskStat {
                tid: g.in_range(1, 1_000_000) as u32,
                comm: name(&mut g, true),
                state: STATES[g.in_range(0, 8) as usize],
                minflt: g.in_range(0, u64::from(u32::MAX)),
                majflt: g.in_range(0, 1_000_000),
                utime: g.in_range(0, u64::from(u32::MAX)),
                stime: g.in_range(0, u64::from(u32::MAX)),
                nice: g.in_range(0, 40) as i32 - 20,
                num_threads: g.in_range(1, 10_000) as u32,
                processor: g.in_range(0, 256) as u32,
                nswap: 0,
                starttime: g.in_range(0, 1 << 40),
            };
            let back = parse::parse_task_stat(&format::format_task_stat(&t));
            assert_eq!(back.as_ref(), Ok(&t), "case {case}");
        }
    }

    #[test]
    fn task_status_round_trips() {
        let mut g = Seeded::new(0x9f0c_0002);
        for case in 0..512 {
            let rss = g.in_range(0, u64::from(u32::MAX));
            let s = TaskStatus {
                name: name(&mut g, false),
                tid: g.in_range(1, 1_000_000) as u32,
                tgid: g.in_range(1, 1_000_000) as u32,
                state: STATES[g.in_range(0, 8) as usize],
                vm_rss_kib: rss,
                vm_size_kib: rss * 2,
                vm_hwm_kib: rss,
                cpus_allowed: CpuSet::from_indices(g.index_set(256, 32)),
                voluntary_ctxt_switches: g.in_range(0, u64::from(u32::MAX)),
                nonvoluntary_ctxt_switches: g.in_range(0, u64::from(u32::MAX)),
            };
            let back = parse::parse_task_status(&format::format_task_status(&s));
            assert_eq!(back.as_ref(), Ok(&s), "case {case}");
        }
    }

    #[test]
    fn system_stat_round_trips() {
        let mut g = Seeded::new(0x9f0c_0003);
        for case in 0..128 {
            let cpus: Vec<(u32, CpuTimes)> = (0..g.in_range(1, 64) as u32)
                .map(|cpu| {
                    let times = CpuTimes {
                        user: g.in_range(0, 100_000),
                        nice: g.in_range(0, 7),
                        system: g.in_range(0, 50_000),
                        idle: g.in_range(0, 1_000_000),
                        iowait: g.in_range(0, 13),
                        irq: g.in_range(0, 3),
                        softirq: g.in_range(0, 5),
                        steal: 0,
                    };
                    (cpu, times)
                })
                .collect();
            let total = cpus
                .iter()
                .fold(CpuTimes::default(), |acc, (_, t)| acc.add(t));
            let s = SystemStat {
                total,
                cpus,
                ctxt: g.in_range(0, 1_000_000),
                processes: g.in_range(0, 100_000),
            };
            let back = parse::parse_system_stat(&format::format_system_stat(&s));
            assert_eq!(back.as_ref(), Ok(&s), "case {case}");
        }
    }
}
