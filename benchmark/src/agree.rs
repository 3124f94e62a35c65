//! `--agree A.json B.json`: do two result sets of one commit agree
//! within the benchmark's own bounds?
//!
//! One row per workload × metric with both values and the ratio with
//! its base (A). End-to-end metrics must differ by no more than the
//! metric's bound (`spec::END_TO_END`, which a unit test holds equal to
//! `BENCHMARK.json`); exact per-layer counts must be identical; both
//! sets must be correct with nothing failed.

use crate::driver::{read_result_set, WorkloadResult};
use crate::spec;
use std::path::Path;

/// One compared pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Value in A (the base) and in B.
    pub a: f64,
    /// Value in B.
    pub b: f64,
    /// Allowed relative difference; 0 for an exact count; `None` for an
    /// informative layer timing.
    pub bound: Option<f64>,
    /// Whether the pair is within its bound.
    pub ok: bool,
}

/// Compares two result sets.
pub fn compare(a: &[WorkloadResult], b: &[WorkloadResult]) -> Vec<Row> {
    let mut rows = Vec::new();
    for wa in a {
        let Some(wb) = b.iter().find(|w| w.name == wa.name) else {
            rows.push(Row {
                workload: wa.name.clone(),
                metric: "(workload missing from B)".into(),
                a: 0.0,
                b: 0.0,
                bound: Some(0.0),
                ok: false,
            });
            continue;
        };
        for (name, va, _) in &wa.metrics {
            let vb = wb.metrics.iter().find(|m| m.0 == *name).map(|m| m.1);
            let bound = match (spec::end_to_end(name), spec::per_layer(name)) {
                (Some(m), _) => Some(m.bound),
                (None, Some(l)) if l.exact => Some(0.0),
                _ => None,
            };
            let ok = match (vb, bound) {
                (None, _) => false,
                (Some(vb), Some(0.0)) => vb == *va,
                (Some(vb), Some(bound)) => (vb - va).abs() <= bound * va.abs(),
                (Some(_), None) => true,
            };
            rows.push(Row {
                workload: wa.name.clone(),
                metric: name.clone(),
                a: *va,
                b: vb.unwrap_or(f64::NAN),
                bound,
                ok,
            });
        }
        for (label, ok) in [
            ("(A correct, nothing failed)", wa.correct && wa.failed == 0),
            ("(B correct, nothing failed)", wb.correct && wb.failed == 0),
        ] {
            rows.push(Row {
                workload: wa.name.clone(),
                metric: label.into(),
                a: wa.failed as f64,
                b: wb.failed as f64,
                bound: Some(0.0),
                ok,
            });
        }
    }
    rows
}

/// Runs the comparison, prints the table; `Ok(true)` iff every pair is
/// within its bound.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let rows = compare(&read_result_set(a)?, &read_result_set(b)?);
    if rows.is_empty() {
        return Err("nothing to compare".into());
    }
    println!(
        "{:<18} {:<40} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for r in &rows {
        let bound = match r.bound {
            Some(0.0) => "exact".to_string(),
            Some(b) => format!("{:.0}%", b * 100.0),
            None => "-".to_string(),
        };
        println!(
            "{:<18} {:<40} {:>16.4} {:>16.4} {:>9.4} {:>7} {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            if r.a != 0.0 { r.b / r.a } else { 1.0 },
            bound,
            if r.ok { "" } else { "OUTSIDE" }
        );
    }
    let bad = rows.iter().filter(|r| !r.ok).count();
    println!("{} pairs compared, {bad} outside their bound", rows.len());
    Ok(bad == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn set(p50: f64, reads: f64, failed: u64) -> Vec<WorkloadResult> {
        vec![WorkloadResult {
            name: "live_procfs_busy".into(),
            correct: failed == 0,
            attempted: 1_000,
            failed,
            metrics: vec![
                ("round_p50_us".into(), p50, "us".into()),
                ("procfs.linux.reads_per_round".into(), reads, "count".into()),
                (
                    "procfs.linux.read_ns_per_file".into(),
                    p50 * 9.0,
                    "ns".into(),
                ),
            ],
            detail: Value::Null,
        }]
    }

    #[test]
    fn bounds_exact_counts_and_failures_each_gate() {
        let base = set(100.0, 197.0, 0);
        let all_ok = |rows: &[Row]| rows.iter().all(|r| r.ok);
        let bound = spec::end_to_end("round_p50_us").unwrap().bound * 100.0;
        // Just inside the bound: agrees; layer timings never gate.
        assert!(all_ok(&compare(&base, &set(100.0 + 0.9 * bound, 197.0, 0))));
        // Just outside it, in either direction.
        assert!(!all_ok(&compare(
            &base,
            &set(100.0 + 1.1 * bound, 197.0, 0)
        )));
        assert!(!all_ok(&compare(
            &base,
            &set(100.0 - 1.1 * bound, 197.0, 0)
        )));
        // An exact count that moved by one.
        let rows = compare(&base, &set(100.0, 198.0, 0));
        let bad: Vec<&str> = rows
            .iter()
            .filter(|r| !r.ok)
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(bad, ["procfs.linux.reads_per_round"]);
        // A failed operation in B.
        assert!(!all_ok(&compare(&base, &set(100.0, 197.0, 1))));
        // A workload B never ran.
        assert!(!all_ok(&compare(&base, &[])));
    }
}
