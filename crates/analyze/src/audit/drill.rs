//! Sanitizer drill: dynamic lock-order edges vs. the static graph.
//!
//! Debug builds record every `held -> acquired` pair of
//! [`zerosum_core::sync::Tracked`] locks. The drill clears the
//! registry, drives real workloads — the abnormal-exit chaos drill,
//! the parallel experiment engine, a sharded monitor soak in
//! `ShardMode::Threads` (its ring slots are `Tracked`) — plus a canary
//! pair guaranteed to record, then asserts every dynamically observed
//! edge also appears in the static graph. A dynamic edge the static
//! pass missed means the analysis under-approximates — exactly the
//! failure mode a static tool must be audited for.
//!
//! In release builds the sanitizer compiles away; the drill reports a
//! no-op rather than a vacuous pass.

use super::AuditReport;
use std::collections::BTreeSet;
use std::sync::{Arc, PoisonError};
use zerosum_core::sync::{clear_observed_lock_edges, observed_lock_edges, Tracked};
use zerosum_core::{
    Monitor, ProcessInfo, ShardMode, ShardedMonitor, SimShardSource, TrackedRw, ZeroSumConfig,
};
use zerosum_sched::{Behavior, NodeSim, SchedParams};
use zerosum_topology::{presets, CpuSet};

/// Canary locks: acquired nested below so the drill can never pass
/// vacuously — if the sanitizer records nothing, something is off.
static CANARY_OUTER: Tracked<u32> = Tracked::new("audit.drill.canary_outer", 0);
static CANARY_INNER: Tracked<u32> = Tracked::new("audit.drill.canary_inner", 0);

/// The drill outcome.
#[derive(Debug)]
pub struct DrillReport {
    /// Dynamically observed `held -> acquired` pairs.
    pub observed: Vec<(String, String)>,
    /// Observed edges absent from the static graph (must be empty).
    pub missing: Vec<(String, String)>,
    /// Failures (missing edges, vacuous run, workload errors).
    pub problems: Vec<String>,
    /// True when built without `debug_assertions` — the sanitizer is
    /// compiled out and the drill cannot observe anything.
    pub release_noop: bool,
}

impl DrillReport {
    /// Whether the drill passed.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        if self.release_noop {
            return "drill: sanitizer compiled out (release build) — no-op\n".to_string();
        }
        let mut out = format!(
            "drill: {} observed lock-order edge(s), {} missing from the static graph\n",
            self.observed.len(),
            self.missing.len()
        );
        for (a, b) in &self.observed {
            let mark = if self.missing.contains(&(a.clone(), b.clone())) {
                "MISSING"
            } else {
                "ok"
            };
            out.push_str(&format!("  {a} -> {b} [{mark}]\n"));
        }
        for p in &self.problems {
            out.push_str(&format!("  FAIL: {p}\n"));
        }
        out
    }
}

/// Nested canary acquisition — deliberately non-test code so the
/// static pass extracts the same edge the sanitizer records.
fn exercise_canaries() {
    let mut outer = CANARY_OUTER.lock().unwrap_or_else(PoisonError::into_inner);
    let mut inner = CANARY_INNER.lock().unwrap_or_else(PoisonError::into_inner);
    *outer += 1;
    *inner += 1;
}

/// Drives the sharded monitor in `ShardMode::Threads`: driver and
/// pumps take the rings' `Tracked` slots from their own threads.
fn exercise_sharded_monitor(problems: &mut Vec<String>) {
    let topo = presets::frontier();
    let mut sim = NodeSim::new(topo, SchedParams::default());
    let mut monitor = Monitor::new(ZeroSumConfig::default());
    for p in 0..2u32 {
        let base = p * 16;
        let mask = CpuSet::from_indices(base..base + 16);
        let pid = sim.spawn_process(
            "drill",
            mask.clone(),
            200_000,
            Behavior::FiniteCompute {
                remaining_us: 3_600_000_000,
                chunk_us: 10_000,
            },
        );
        for w in 1..4u32 {
            sim.spawn_task(
                pid,
                &format!("worker{w}"),
                None,
                Behavior::FiniteCompute {
                    remaining_us: 3_600_000_000,
                    chunk_us: 10_000,
                },
                false,
            );
        }
        monitor.watch_process(ProcessInfo {
            pid,
            rank: Some(p),
            hostname: "drill".into(),
            gpus: vec![],
            cpus_allowed: mask,
        });
    }
    let sim = Arc::new(TrackedRw::new("audit.drill.shard_sim", sim));
    let mut sharded = ShardedMonitor::new(monitor, 2, ShardMode::Threads);
    let sim_for_shards = Arc::clone(&sim);
    sharded.run_rounds(
        move |_| SimShardSource::new(Arc::clone(&sim_for_shards)),
        6,
        |r| {
            sim.write()
                .unwrap_or_else(PoisonError::into_inner)
                .run_for(10_000);
            r as f64 * 0.01
        },
    );
    let monitor = sharded.into_monitor();
    if monitor.stats.rounds != 6 {
        problems.push(format!(
            "sharded drill ran {} rounds, expected 6",
            monitor.stats.rounds
        ));
    }
}

/// Runs real monitored workloads to generate tracked-lock traffic.
fn exercise_workloads(problems: &mut Vec<String>) {
    // Parallel experiment engine: per-slot job/result locks.
    let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..4u64)
        .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> u64 + Send>)
        .collect();
    let results = zerosum_experiments::parallel::run_jobs(jobs, 2);
    if results.iter().sum::<u64>() != 14 {
        problems.push("parallel workload returned wrong results".to_string());
    }
    // Abnormal-exit drill: crash-flush registry plus the flush
    // monitor's tracked lock.
    for p in crate::chaos::abnormal_exit_drill() {
        problems.push(format!("abnormal-exit drill: {p}"));
    }
}

/// Runs the drill against a computed static report.
pub fn run_drill(report: &AuditReport) -> DrillReport {
    if !cfg!(debug_assertions) {
        return DrillReport {
            observed: Vec::new(),
            missing: Vec::new(),
            problems: Vec::new(),
            release_noop: true,
        };
    }
    clear_observed_lock_edges();
    exercise_canaries();
    let mut problems = Vec::new();
    exercise_workloads(&mut problems);
    exercise_sharded_monitor(&mut problems);
    let observed: Vec<(String, String)> = observed_lock_edges()
        .into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    let static_pairs: BTreeSet<(&str, &str)> = report
        .edges
        .iter()
        .map(|e| (e.from.as_str(), e.to.as_str()))
        .collect();
    let missing: Vec<(String, String)> = observed
        .iter()
        .filter(|(a, b)| !static_pairs.contains(&(a.as_str(), b.as_str())))
        .cloned()
        .collect();
    if observed.is_empty() {
        problems.push(
            "sanitizer observed no edges — drill is vacuous (canaries should always record)"
                .to_string(),
        );
    }
    for (a, b) in &missing {
        problems.push(format!(
            "dynamic edge `{a} -> {b}` is absent from the static lock-order graph"
        ));
    }
    DrillReport {
        observed,
        missing,
        problems,
        release_noop: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_edge_is_in_the_static_graph_of_this_file() {
        // Audit just this file: the canary edge the sanitizer records
        // must be exactly what the static pass extracts here.
        let src = std::fs::read_to_string(file!()).ok().or_else(|| {
            let root = super::super::find_workspace_root(&std::env::current_dir().ok()?)?;
            std::fs::read_to_string(root.join("crates/analyze/src/audit/drill.rs")).ok()
        });
        let Some(src) = src else {
            panic!("cannot locate drill.rs source for self-audit")
        };
        let report =
            super::super::audit_sources(&[("crates/analyze/src/audit/drill.rs".to_string(), src)]);
        assert!(
            report.edges.iter().any(|e| e.from == "audit.drill.canary_outer"
                && e.to == "audit.drill.canary_inner"),
            "{:?}",
            report
                .edges
                .iter()
                .map(|e| (&e.from, &e.to))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn canaries_record_dynamically_in_debug() {
        exercise_canaries();
        if cfg!(debug_assertions) {
            let edges = observed_lock_edges();
            assert!(
                edges.contains(&("audit.drill.canary_outer", "audit.drill.canary_inner")),
                "{edges:?}"
            );
        }
    }
}
