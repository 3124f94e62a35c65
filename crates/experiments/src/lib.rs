//! # zerosum-experiments
//!
//! Regeneration harnesses for every table and figure in the paper's
//! evaluation (§4), plus the two listings:
//!
//! | Artifact | Module | `zerosum run-all --only` |
//! |---|---|---|
//! | Listing 1 (lstopo output) | [`listings::listing1`] | `listing1` |
//! | Listing 2 (utilization report) | [`listings::listing2`] | `listing2` |
//! | Table 1 (default srun) | [`tables::run_table`] | `table1` |
//! | Table 2 (`-c7`) | [`tables::run_table`] | `table2` |
//! | Table 3 (`-c7` + spread/cores) | [`tables::run_table`] | `table3` |
//! | Figure 5 (p2p heatmap) | [`figures::fig5`] | `fig5` |
//! | Figure 6 (LWP series) | [`figures::fig67`] | `fig6` |
//! | Figure 7 (HWT series) | [`figures::fig67`] | `fig7` |
//! | Figure 8 (overhead) | [`figures::fig8`] | `fig8` |
//! | `srun -c N` sweep | [`sweep::sweep_cpus_per_task`] | `sweep` |
//! | Cross-platform sweep | [`platforms::run_all_platforms`] | `platforms` |
//! | Allocation summary | [`cluster_demo::run_allocation`] | `cluster` |
//! | Node diagrams (Figures 1–3) | `zerosum_topology::render_node_diagram` | `diagrams` |
//!
//! [`artifacts::ARTIFACTS`] is that table as data: `zerosum run-all`
//! renders the rows `--only` names (or, with none, the compact
//! paper-vs-measured sweep), `--scale N` divides the workload for quick
//! runs, and CSV artifacts land under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod churn;
pub mod cluster_chaos;
pub mod cluster_demo;
pub mod figures;
pub mod listings;
pub mod parallel;
pub mod platforms;
pub mod sweep;
pub mod tables;
pub mod transport_chaos;
