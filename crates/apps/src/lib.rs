//! # zerosum-apps
//!
//! Workload proxies for ZeroSum-rs:
//!
//! * [`miniqmc`] — the MPI+OpenMP (and GPU-offload) proxy standing in for
//!   the ECP miniQMC application of the paper's evaluation (Tables 1–3,
//!   Listing 2, Figure 8).
//! * [`pic`] — the gyrokinetic particle-in-cell communication proxy
//!   behind the Figure 5 heatmap.
//! * [`synthetic`] — a freeform workload builder for examples and
//!   failure-injection tests (deadlocks, hogs, pollers).
//! * [`churn`] — the open-system churn storm: seeded Poisson
//!   arrival/departure schedules with Zipf thread counts, plus the
//!   real-process (fork/fork+exec) backend behind `zerosum churn`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod miniqmc;
pub mod pic;
pub mod synthetic;

pub use churn::{
    churn_child_main, generate_schedule, probe_spawn, run_real_churn, Arrival, ChurnConfig,
    ChurnSchedule, RealChurnOutcome, StormVariant,
};
pub use miniqmc::{launch as launch_miniqmc, MiniQmcConfig, MiniQmcJob, QmcOffload};
pub use pic::{run as run_pic, PicConfig};
pub use synthetic::{spawn as spawn_synthetic, Role, SyntheticProcess};
