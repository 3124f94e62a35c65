//! `zsbench`: the repository benchmark.
//!
//! Measures the monitor's data path from outside, through the layers'
//! public functions only — `Monitor::sample`, `ShardedMonitor::run_rounds`,
//! `LinuxProc`, `parse::*_into`, `NodeAgent`, `Collector`, `TcpLink`,
//! `encode_frame`/`decode_frame`, `export::*`, `render_process_report` —
//! over six workloads (see `README.md`): end-to-end numbers from the
//! plain binary, per-layer numbers from a separate traced run.

#![warn(missing_docs)]

pub mod agree;
pub mod alloc_count;
pub mod child;
pub mod driver;
pub mod estimate;
pub mod json;
pub mod layers;
pub mod replay;
pub mod spec;
pub mod trace;
pub mod workloads;
