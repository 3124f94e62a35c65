//! Running the paper's experiment scenarios under the trace checker.
//!
//! Each scenario executes a real experiment harness with scheduler
//! tracing enabled, then feeds the trace to the happens-before detector
//! and the invariant engine. Figure 5 has no scheduler component (it is
//! a pure MPI communication study), so it gets communication-matrix
//! consistency checks instead.

use crate::hb::{detect_races, Race};
use crate::invariants::{check_invariants, InvariantKind, Violation};
use zerosum_experiments::figures::{fig5, fig67_traced, fig8_traced_run};
use zerosum_experiments::tables::{run_table_traced, TableConfig};
use zerosum_mpi::CommMatrix;
use zerosum_sched::{SimAudit, TraceRecord};

/// The result of checking one scenario.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Scenario name (`table1` … `fig8-smt2`).
    pub name: String,
    /// Number of trace records checked (0 for fig5).
    pub events: usize,
    /// Happens-before violations.
    pub races: Vec<Race>,
    /// Invariant violations.
    pub violations: Vec<Violation>,
}

impl ScenarioReport {
    /// True when the scenario passed every check.
    pub fn clean(&self) -> bool {
        self.races.is_empty() && self.violations.is_empty()
    }

    /// One-line summary plus one line per finding.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let status = if self.clean() { "ok" } else { "FAIL" };
        writeln!(
            out,
            "{:<12} {:>8} events  {:>3} races  {:>3} violations  [{status}]",
            self.name,
            self.events,
            self.races.len(),
            self.violations.len()
        )
        .unwrap();
        for r in &self.races {
            writeln!(out, "  race: {}", r.message).unwrap();
        }
        for v in &self.violations {
            writeln!(out, "  {:?}: {}", v.kind, v.message).unwrap();
        }
        out
    }
}

/// Checks one already-captured trace/audit pair.
pub fn check_trace(name: &str, trace: &[TraceRecord], audit: &SimAudit) -> ScenarioReport {
    ScenarioReport {
        name: name.to_string(),
        events: trace.len(),
        races: detect_races(trace),
        violations: check_invariants(trace, audit),
    }
}

/// Consistency checks on a Figure 5 communication matrix.
pub fn check_comm_matrix(name: &str, m: &CommMatrix) -> ScenarioReport {
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
    ScenarioReport {
        name: name.to_string(),
        events: 0,
        races: Vec::new(),
        violations,
    }
}

/// One scenario: its name and the run that checks it at `(scale, seed)`.
pub type Scenario = (&'static str, fn(&str, u32, u64) -> ScenarioReport);

/// Checks the trace/audit pair a traced experiment run returned.
fn traced<R>(name: &str, run: (R, Vec<TraceRecord>, SimAudit)) -> ScenarioReport {
    check_trace(name, &run.1, &run.2)
}

/// Every paper scenario, in report order. `scale` divides the workloads
/// exactly as in the experiment tests (CI uses 100–150).
pub const SCENARIOS: [Scenario; 7] = [
    ("table1", |n, scale, seed| {
        traced(n, run_table_traced(TableConfig::Table1, scale, seed))
    }),
    ("table2", |n, scale, seed| {
        traced(n, run_table_traced(TableConfig::Table2, scale, seed))
    }),
    ("table3", |n, scale, seed| {
        traced(n, run_table_traced(TableConfig::Table3, scale, seed))
    }),
    ("fig67", |n, scale, seed| {
        traced(n, fig67_traced(scale.max(150), seed))
    }),
    ("fig8-smt1", |n, scale, seed| {
        traced(n, fig8_traced_run(false, scale, seed))
    }),
    ("fig8-smt2", |n, scale, seed| {
        traced(n, fig8_traced_run(true, scale, seed))
    }),
    ("fig5", |n, _, _| {
        check_comm_matrix(n, &fig5(&zerosum_apps::PicConfig::small()).matrix)
    }),
];

/// Runs the scenarios under the checker: the one named `only`, or all.
pub fn run_scenarios(only: Option<&str>, scale: u32, seed: u64) -> Vec<ScenarioReport> {
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
        let rep = check_comm_matrix("fig5", &run.matrix);
        assert!(rep.clean(), "{}", rep.render());
    }
}
