//! # ZeroSum-rs
//!
//! A from-scratch Rust reproduction of **ZeroSum: User Space Monitoring
//! of Resource Utilization and Contention on Heterogeneous HPC Systems**
//! (Kevin A. Huck and Allen D. Malony, HUST-23 / SC'23 workshops).
//!
//! ZeroSum monitors application processes, lightweight processes
//! (threads), and hardware resources — CPU hardware threads, memory, and
//! GPUs — entirely from user space through `/proc`-style interfaces, at
//! a sampling cost below 0.5% of runtime. This workspace provides:
//!
//! * the monitor itself ([`core`]: sampling, reports, contention
//!   analysis, configuration evaluation, progress detection, CSV export,
//!   live self-monitoring on real Linux);
//! * every substrate the paper's evaluation depends on, built from
//!   scratch: an hwloc-like topology model ([`topology`]), `/proc`
//!   parsers and sources ([`procfs`]), a CFS-like node scheduler
//!   simulation ([`sched`]), an OpenMP affinity runtime ([`omp`]), a
//!   simulated MPI with point-to-point byte accounting ([`mpi`]),
//!   simulated ROCm-SMI/NVML GPU backends ([`gpu`]), and statistics
//!   ([`stats`]);
//! * workload proxies ([`apps`]) and experiment harnesses regenerating
//!   every table and figure of the paper (the `zerosum-experiments`
//!   binaries).
//!
//! ## Quickstart (live, on Linux)
//!
//! ```no_run
//! use zerosum::prelude::*;
//!
//! let session = SelfMonitor::start(ZeroSumConfig::default(), None).unwrap();
//! // ... your application work ...
//! let (monitor, duration) = session.stop();
//! let pid = monitor.processes()[0].info.pid;
//! println!("{}", render_process_report(&monitor, pid, duration, None));
//! ```
//!
//! ## Quickstart (simulated Frontier node)
//!
//! See `examples/quickstart.rs` and the `zerosum-experiments` crate.

#![forbid(unsafe_code)]

pub use zerosum_apps as apps;
pub use zerosum_core as core;
pub use zerosum_gpu as gpu;
pub use zerosum_mpi as mpi;
pub use zerosum_omp as omp;
pub use zerosum_proc as procfs;
pub use zerosum_sched as sched;
pub use zerosum_stats as stats;
pub use zerosum_topology as topology;

/// The most common imports for ZeroSum users.
pub mod prelude {
    pub use zerosum_core::{
        analyze, attach_monitor_threads, evaluate, evaluate_gpu_memory, render_findings,
        render_process_report, render_summary, run_baseline, run_monitored, ClusterMonitor,
        Finding, GpuStack, Liveness, Monitor, MonitorPlacement, ProcessInfo, ProgressTracker,
        SampleFeed, SelfMonitor, Severity, SimGpuLink, ZeroSumConfig,
    };
    pub use zerosum_proc::{LinuxProc, ProcSource};
    pub use zerosum_sched::{
        Behavior, NodeSim, SchedParams, SimProcSource, SrunConfig, WorkerSpec,
    };
    pub use zerosum_topology::{presets, CpuSet, Topology};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let topo = presets::frontier();
        assert_eq!(topo.complete_cpuset().count(), 128);
        let cfg = ZeroSumConfig::default();
        assert_eq!(cfg.period_us, 1_000_000);
    }
}
