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
//!   checker, run by `zerosum audit`: four reachability passes, rows of
//!   one table — panic reachability (the monitor's hot-path files
//!   rooted whole), allocation, determinism, and the one blocking pass
//!   under the watchdog's roots (`Monitor::sample`,
//!   `Collector::pump_frames`) — and the repo rules: no `?`-propagation
//!   of `/proc` read errors out of the sampling round, no unreviewed
//!   growth of monitor state, no lock type named in product code.
//! * **Chaos checking** ([`chaos`]) — Tables 1–3 under seeded procfs
//!   fault schedules: zero panics, exact ledger/fault-log
//!   reconciliation, bounded distortion.
//! * **Open-system churn chaos** ([`churn_chaos`]) — seeded
//!   Berserker-style fork/exec storms over the deterministic sim-churn
//!   backend: no panics at any arrival rate, mid-read departures fold
//!   into health accounting (never an error or quarantine storm),
//!   reused pids never merge starttime-keyed series, memory stays
//!   bounded as cumulative task count grows, and the overhead governor
//!   sheds honestly under an arrival-rate ramp — plus a bit-identical
//!   repro witness.
//! * **Allocation chaos** ([`transport_chaos`]) — the allocation
//!   judged through the wire, its one path: seeded node-fault plans
//!   (kills, stragglers, delayed rejoins, clock skew) applied at the
//!   agents and seeded transport fault plans (frame drops, bit flips,
//!   truncation, delay, reorder, disconnects, partitions, permanent
//!   kills) over the deterministic in-process backend — honest
//!   `DEGRADED (k/n nodes)`, `DEAD` and `SKEWED` markers, survivor
//!   aggregates delivered bit-identical to the fault-free run.
//!
//! Every seeded judge returns the one [`Verdict`] (module [`verdict`]),
//! which also holds the seed fan-out and the panic guard.
//!
//! Entry points: the `zerosum` subcommands `analyze`, `chaos`,
//! `cluster-chaos`, `churn` and `audit`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod audit;
pub mod chaos;
pub mod churn_chaos;
pub mod invariants;
pub mod scenarios;
pub mod transport_chaos;
pub mod verdict;

pub use audit::{audit_sources, audit_workspace, find_workspace_root, AuditReport};
pub use chaos::{realistic_plan, run_suite};
pub use churn_chaos::{judge_churn_run, run_churn_suite, suite_params};
pub use invariants::{check_invariants, InvariantKind, Violation};
pub use scenarios::{check_comm_matrix, check_trace, run_scenarios, SCENARIOS};
pub use transport_chaos::{judge_transport_run, run_transport_suite};
pub use verdict::{render_suite, Verdict};
