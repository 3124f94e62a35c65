//! # zerosum-core
//!
//! The ZeroSum monitor — the paper's primary contribution, as a library.
//!
//! ZeroSum (Huck & Malony, HUST-23) provides user-space monitoring of
//! application processes, threads, and hardware resources on
//! heterogeneous HPC systems: configuration detection through `/proc`,
//! periodic sampling by an asynchronous thread, utilization and
//! contention reports, and CSV export for time-series analysis — all at
//! under 0.5% overhead. This crate implements the tool:
//!
//! * [`config`] — sampling period, delta sampling, series capacity,
//!   cost model.
//! * [`monitor`] — the periodic sampler over any
//!   [`zerosum_proc::ProcSource`] (live Linux or the node simulation).
//! * [`lwp`], [`hwt`], [`memory`] — per-thread, per-CPU, and memory
//!   tracking (§3.1, §3.4, §3.5).
//! * [`report`] — the Listing 2 utilization report.
//! * [`contention`] — the §3.5 contention report.
//! * [`evaluator`] — configuration evaluation rules (the §3.2 extension).
//! * [`heartbeat`] — progress detection and deadlock heuristics (§3.3).
//! * [`export`] — CSV/log exportation (§3.6).
//! * [`signal`] — abnormal-exit reporting (§3.1).
//! * [`gpu_link`], [`runner`] — the virtual-time driver coupling the
//!   monitor to `zerosum-sched`'s node simulation.
//! * [`attach`] — live self-monitoring of a real process on Linux.
//! * `round` — the sampling round [`Monitor::sample`] runs: list
//!   every watch, then read and fold each task in place.
//! * [`shard`] — [`ShardedMonitor`] and its source handles, the names
//!   the benchmark's `sim_sharded_wide` workload compiles against: a
//!   pass-through to [`Monitor::sample`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![warn(missing_docs)]

pub mod attach;
pub mod cluster;
pub mod config;
pub mod contention;
pub mod evaluator;
pub mod export;
pub mod gpu_link;
pub mod health;
pub mod heartbeat;
pub mod hwt;
pub mod lwp;
pub mod memory;
pub mod monitor;
pub mod report;
mod round;
pub mod runner;
pub mod shard;
pub mod signal;
pub mod sync;

pub use attach::SelfMonitor;
pub use cluster::{ClusterMonitor, NodeAggregate, NodeState, NodeSupervision, Supervision};
pub use config::{MonitorCost, ZeroSumConfig};
pub use contention::{analyze, ContentionReport};
pub use evaluator::{evaluate, evaluate_gpu_memory, render_findings, Finding, Severity};
pub use gpu_link::{GpuStack, SimGpuLink};
pub use health::{HealthLedger, ProcessHealth, TaskFailState};
pub use heartbeat::{Liveness, ProgressTracker};
pub use lwp::{DepartedSummary, LwpKind, LwpRegistry, LwpTrack};
pub use monitor::{
    GovernorState, Monitor, PeriodChange, ProcessInfo, ProcessWatch, SupervisorStats,
};
pub use report::{render_process_report, GpuReportContext};
pub use runner::{
    attach_monitor_threads, run_baseline, run_monitored, run_monitored_faulty, RunOutcome,
};
pub use shard::{ShardMode, ShardSource, ShardedMonitor, SimShardSource};
#[expect(
    clippy::disallowed_types,
    reason = "the frozen benchmark's `sim_sharded_wide` imports `TrackedRw` from here"
)]
pub use sync::TrackedRw;
