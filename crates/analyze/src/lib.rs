//! Dynamic and static analysis for the ZeroSum reproduction.
//!
//! The parts:
//!
//! * **Dynamic trace checking** ([`invariants`], [`scenarios`]) — runs
//!   the paper's experiment harnesses with scheduler tracing on, then
//!   proves the resulting event log self-consistent: an invariant
//!   engine replaying every transition and reconciling the trace
//!   against the simulator's final counters (jiffy conservation, single
//!   residency, charge attribution, affinity, context-switch totals,
//!   GPU causality).
//! * **Static audit** ([`audit`]) — the workspace's one source-level
//!   checker, run by `zerosum audit`: lock order, panic reachability
//!   (the monitor's hot-path files rooted whole), effects (allocation,
//!   determinism, the one blocking pass), and the repo rules — no
//!   prints in library crates, no `?`-propagation of `/proc` read
//!   errors out of the sampling round, no unreviewed growth of monitor
//!   state.
//! * **Chaos checking** ([`chaos`]) — Tables 1–3 under seeded procfs
//!   fault schedules: zero panics, exact ledger/fault-log
//!   reconciliation, bounded distortion, and an abnormal-exit drill for
//!   the crash-safe export path.
//! * **Open-system churn chaos** ([`churn_chaos`]) — seeded
//!   Berserker-style fork/exec storms over the deterministic sim-churn
//!   backend: no panics at any arrival rate, mid-read departures fold
//!   into health accounting (never an error or quarantine storm),
//!   reused pids never merge starttime-keyed series, memory stays
//!   bounded as cumulative task count grows, and the overhead governor
//!   sheds honestly under an arrival-rate ramp — plus a bit-identical
//!   repro witness.
//! * **Allocation-scale chaos** ([`cluster_chaos`]) — node supervision
//!   under seeded node-fault plans (kills, stragglers, delayed rejoins,
//!   clock skew): an allocation report every round with honest
//!   `DEGRADED (k/n nodes)` markers, survivor aggregates exactly
//!   matching the fault-free run, plus the bounded-memory drill proving
//!   series storage stays constant over million-round runs.
//! * **Lossy-transport chaos** ([`transport_chaos`]) — the same
//!   allocation judged through the wire: seeded transport fault plans
//!   (frame drops, bit flips, truncation, delay, reorder, disconnects,
//!   partitions, permanent kills) over the deterministic in-process
//!   backend, with survivor aggregates delivered bit-identical to the
//!   fault-free run, plus a loopback-TCP smoke when sockets are
//!   allowed.
//!
//!
//! Every seeded judge returns the one [`Verdict`] (module [`verdict`]),
//! which also holds the seed fan-out, the panic guard and the section
//! the drills print through.
//!
//! Entry points: the `zerosum` subcommands `analyze`, `chaos`,
//! `cluster-chaos`, `churn`, `shard-diff` and `audit`.

#![forbid(unsafe_code)]

pub mod audit;
pub mod chaos;
pub mod churn_chaos;
pub mod cluster_chaos;
pub mod invariants;
pub mod scenarios;
pub mod sharddiff;
pub mod transport_chaos;
pub mod verdict;

pub use audit::{audit_sources, audit_workspace, find_workspace_root, AuditReport};
pub use chaos::{abnormal_exit_drill, realistic_plan, run_suite};
pub use churn_chaos::{judge_churn_run, judge_real_churn, run_churn_suite, suite_params};
pub use cluster_chaos::{bounded_memory_drill, judge_cluster_run, run_cluster_suite};
pub use invariants::{check_invariants, InvariantKind, Violation};
pub use scenarios::{check_comm_matrix, check_trace, run_scenarios, SCENARIOS};
pub use sharddiff::{run_shard_chaos, run_shard_differential, SHARD_CHAOS_SEED};
pub use transport_chaos::{judge_transport_run, run_transport_suite, tcp_loopback_smoke};
pub use verdict::{drill_section, render_suite, Verdict};
