//! Running the paper's experiment scenarios under the trace checker.
//!
//! Each scenario executes a real experiment harness with scheduler
//! tracing enabled, then feeds the trace to the invariant engine.
//! Figure 5 has no scheduler component (it is a pure MPI communication
//! study), so it gets communication-matrix consistency checks instead.
//! Like every other judge, a scenario fills in a [`Verdict`].

use crate::invariants::{check_invariants, InvariantKind, Violation};
use crate::verdict::Verdict;
use zerosum_experiments::figures::{fig5, fig67_traced, fig8_traced_run};
use zerosum_experiments::tables::{run_table_traced, TableConfig};
use zerosum_mpi::CommMatrix;
use zerosum_sched::{SimAudit, TraceRecord};

/// The verdict of one scenario: how many trace records were checked
/// (0 for fig5) and one problem per violation.
fn verdict(name: &str, seed: u64, events: usize, violations: &[Violation]) -> Verdict {
    let mut v = Verdict::new(name, 12, seed);
    v.cells = format!("{events:>8} events  {:>3} violations", violations.len());
    v.problems = violations
        .iter()
        .map(|x| format!("{:?}: {}", x.kind, x.message))
        .collect();
    v
}

/// Checks one already-captured trace/audit pair.
pub fn check_trace(name: &str, seed: u64, trace: &[TraceRecord], audit: &SimAudit) -> Verdict {
    verdict(name, seed, trace.len(), &check_invariants(trace, audit))
}

/// Consistency checks on a Figure 5 communication matrix.
pub fn check_comm_matrix(name: &str, seed: u64, m: &CommMatrix) -> Verdict {
    let mut violations = Vec::new();
    let n = m.size();
    let mut sum = 0u64;
    let mut max = 0u64;
    for src in 0..n {
        for dst in 0..n {
            let b = m.bytes(src, dst);
            sum += b;
            max = max.max(b);
            if b > 0 && m.messages(src, dst) == 0 {
                violations.push(Violation {
                    index: None,
                    t_us: 0,
                    kind: InvariantKind::CounterMismatch,
                    message: format!("pair ({src},{dst}) has {b} bytes but zero messages"),
                });
            }
        }
    }
    if sum != m.total_bytes() {
        violations.push(Violation {
            index: None,
            t_us: 0,
            kind: InvariantKind::Conservation,
            message: format!(
                "per-pair bytes sum to {sum} but total_bytes reports {}",
                m.total_bytes()
            ),
        });
    }
    if max != m.max_bytes() {
        violations.push(Violation {
            index: None,
            t_us: 0,
            kind: InvariantKind::CounterMismatch,
            message: format!(
                "per-pair maximum is {max} but max_bytes reports {}",
                m.max_bytes()
            ),
        });
    }
    let frac = m.diagonal_fraction(2);
    if !(0.0..=1.0).contains(&frac) {
        violations.push(Violation {
            index: None,
            t_us: 0,
            kind: InvariantKind::Conservation,
            message: format!("diagonal fraction {frac} outside [0, 1]"),
        });
    }
    verdict(name, seed, 0, &violations)
}

/// One scenario: its name and the run that checks it at `(scale, seed)`.
pub type Scenario = (&'static str, fn(&str, u32, u64) -> Verdict);

/// Checks the trace/audit pair a traced experiment run returned.
fn traced<R>(name: &str, seed: u64, run: (R, Vec<TraceRecord>, SimAudit)) -> Verdict {
    check_trace(name, seed, &run.1, &run.2)
}

/// Every paper scenario, in report order. `scale` divides the workloads
/// exactly as in the experiment tests (CI uses 100–150).
pub const SCENARIOS: [Scenario; 7] = [
    ("table1", |n, scale, seed| {
        traced(n, seed, run_table_traced(TableConfig::Table1, scale, seed))
    }),
    ("table2", |n, scale, seed| {
        traced(n, seed, run_table_traced(TableConfig::Table2, scale, seed))
    }),
    ("table3", |n, scale, seed| {
        traced(n, seed, run_table_traced(TableConfig::Table3, scale, seed))
    }),
    ("fig67", |n, scale, seed| {
        traced(n, seed, fig67_traced(scale.max(150), seed))
    }),
    ("fig8-smt1", |n, scale, seed| {
        traced(n, seed, fig8_traced_run(false, scale, seed))
    }),
    ("fig8-smt2", |n, scale, seed| {
        traced(n, seed, fig8_traced_run(true, scale, seed))
    }),
    ("fig5", |n, _, seed| {
        check_comm_matrix(n, seed, &fig5(&zerosum_apps::PicConfig::small()).matrix)
    }),
];

/// Runs the scenarios under the checker: the one named `only`, or all.
pub fn run_scenarios(only: Option<&str>, scale: u32, seed: u64) -> Vec<Verdict> {
    SCENARIOS
        .iter()
        .filter(|(name, _)| only.is_none_or(|o| o == *name))
        .map(|(name, check)| check(name, scale, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_matrix_is_consistent() {
        let run = fig5(&zerosum_apps::PicConfig::small());
        let rep = check_comm_matrix("fig5", 0, &run.matrix);
        assert!(rep.passed(), "{}", rep.render());
    }
}
